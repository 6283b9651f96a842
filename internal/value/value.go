// Package value defines the dynamic values manipulated by NFLang programs.
//
// A single Value type is shared by the concrete interpreter
// (internal/interp), the constraint solver (internal/solver), the symbolic
// executor (internal/symexec) and the model interpreter (internal/model),
// so that constant folding in the symbolic executor and concrete execution
// agree bit-for-bit — a requirement for the paper's differential-testing
// accuracy methodology (§5).
package value

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates the dynamic types of NFLang.
type Kind int

// The NFLang value kinds.
const (
	KindNil Kind = iota
	KindInt
	KindStr
	KindBool
	KindTuple
	KindList
	KindMap
	KindPacket
)

// String returns the NFLang name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNil:
		return "nil"
	case KindInt:
		return "int"
	case KindStr:
		return "string"
	case KindBool:
		return "bool"
	case KindTuple:
		return "tuple"
	case KindList:
		return "list"
	case KindMap:
		return "map"
	case KindPacket:
		return "packet"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Value is a dynamically typed NFLang value. The zero Value is nil.
//
// Tuples are immutable; lists and maps are reference types (mutations are
// visible through every Value holding the same pointer), mirroring the
// semantics of the Python-like NF code in the paper's Figure 1.
type Value struct {
	Kind  Kind
	I     int64
	S     string
	B     bool
	Tuple []Value
	List  *ListVal
	Map   *MapVal
	Pkt   *PacketVal
}

// ListVal is the shared storage of a list value.
type ListVal struct {
	Elems []Value
}

// MapVal is the shared storage of a map (dict) value. Keys are stored by
// their canonical encoding so that tuples can be used as keys, exactly as
// the load balancer in the paper keys its NAT dictionaries by 4-tuples.
type MapVal struct {
	entries map[string]mapEntry
}

type mapEntry struct {
	key Value
	val Value
}

// PacketVal is the interpreter-level view of a packet: a bag of named
// header fields. internal/netpkt converts wire packets to and from this
// representation.
type PacketVal struct {
	Fields map[string]Value
}

// Nil returns the nil value.
func Nil() Value { return Value{} }

// Int returns an integer value.
func Int(i int64) Value { return Value{Kind: KindInt, I: i} }

// Str returns a string value.
func Str(s string) Value { return Value{Kind: KindStr, S: s} }

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{Kind: KindBool, B: b} }

// TupleOf returns a tuple value of the given elements.
func TupleOf(elems ...Value) Value { return Value{Kind: KindTuple, Tuple: elems} }

// NewList returns a fresh list value holding elems.
func NewList(elems ...Value) Value {
	return Value{Kind: KindList, List: &ListVal{Elems: elems}}
}

// NewMap returns a fresh empty map value.
func NewMap() Value {
	return Value{Kind: KindMap, Map: &MapVal{entries: make(map[string]mapEntry)}}
}

// NewPacket returns a fresh packet value with the given fields.
func NewPacket(fields map[string]Value) Value {
	if fields == nil {
		fields = make(map[string]Value)
	}
	return Value{Kind: KindPacket, Pkt: &PacketVal{Fields: fields}}
}

// IsTruthy reports whether v counts as true in a condition. Only booleans
// are permitted in NFLang conditions; other kinds report an error.
func (v Value) IsTruthy() (bool, error) {
	if v.Kind != KindBool {
		return false, fmt.Errorf("condition is %s, want bool", v.Kind)
	}
	return v.B, nil
}

// Len returns the length of a string, tuple, list or map.
func (v Value) Len() (int, error) {
	switch v.Kind {
	case KindStr:
		return len(v.S), nil
	case KindTuple:
		return len(v.Tuple), nil
	case KindList:
		return len(v.List.Elems), nil
	case KindMap:
		return len(v.Map.entries), nil
	default:
		return 0, fmt.Errorf("len of %s", v.Kind)
	}
}

// Key returns the canonical encoding of v for use as a map key.
// Only hashable kinds (int, string, bool, tuples thereof) are encodable.
func (v Value) Key() (string, error) {
	var buf [64]byte
	b, err := appendKey(buf[:0], v)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// appendKey appends v's canonical key encoding to b: "i<dec>;",
// "s<len>:<bytes>;", "btrue;"/"bfalse;", "n;" and "t<n>(...)" for
// tuples. Length-prefixed strings make the encoding injective; the
// compiled engine streams the same bytes through its FNV mirror.
func appendKey(b []byte, v Value) ([]byte, error) {
	switch v.Kind {
	case KindInt:
		b = append(b, 'i')
		b = strconv.AppendInt(b, v.I, 10)
		b = append(b, ';')
	case KindStr:
		b = append(b, 's')
		b = strconv.AppendInt(b, int64(len(v.S)), 10)
		b = append(b, ':')
		b = append(b, v.S...)
		b = append(b, ';')
	case KindBool:
		b = append(b, 'b')
		b = strconv.AppendBool(b, v.B)
		b = append(b, ';')
	case KindNil:
		b = append(b, "n;"...)
	case KindTuple:
		b = append(b, 't')
		b = strconv.AppendInt(b, int64(len(v.Tuple)), 10)
		b = append(b, '(')
		for _, e := range v.Tuple {
			var err error
			if b, err = appendKey(b, e); err != nil {
				return b, err
			}
		}
		b = append(b, ')')
	default:
		return b, fmt.Errorf("unhashable map key kind %s", v.Kind)
	}
	return b, nil
}

// Get looks up k in the map, reporting presence.
func (m *MapVal) Get(k Value) (Value, bool, error) {
	var buf [64]byte
	key, err := appendKey(buf[:0], k)
	if err != nil {
		return Value{}, false, err
	}
	e, ok := m.entries[string(key)]
	return e.val, ok, nil
}

// Set stores k→v in the map.
func (m *MapVal) Set(k, v Value) error {
	key, err := k.Key()
	if err != nil {
		return err
	}
	if m.entries == nil {
		m.entries = make(map[string]mapEntry)
	}
	m.entries[key] = mapEntry{key: k, val: v}
	return nil
}

// Delete removes k from the map (no-op when absent).
func (m *MapVal) Delete(k Value) error {
	var buf [64]byte
	key, err := appendKey(buf[:0], k)
	if err != nil {
		return err
	}
	delete(m.entries, string(key))
	return nil
}

// Len returns the number of entries.
func (m *MapVal) Len() int { return len(m.entries) }

// Keys returns the map keys in canonical (sorted) order, for deterministic
// iteration and printing.
func (m *MapVal) Keys() []Value {
	enc := make([]string, 0, len(m.entries))
	for k := range m.entries {
		enc = append(enc, k)
	}
	sort.Strings(enc)
	out := make([]Value, len(enc))
	for i, k := range enc {
		out[i] = m.entries[k].key
	}
	return out
}

// Clone returns a deep copy of v. Lists, maps and packets are copied;
// tuples are immutable and shared.
func (v Value) Clone() Value {
	switch v.Kind {
	case KindList:
		elems := make([]Value, len(v.List.Elems))
		for i, e := range v.List.Elems {
			elems[i] = e.Clone()
		}
		return NewList(elems...)
	case KindMap:
		entries := make(map[string]mapEntry, len(v.Map.entries))
		for enc, e := range v.Map.entries {
			entries[enc] = mapEntry{key: e.key, val: e.val.Clone()}
		}
		return Value{Kind: KindMap, Map: &MapVal{entries: entries}}
	case KindPacket:
		fields := make(map[string]Value, len(v.Pkt.Fields))
		for name, f := range v.Pkt.Fields {
			fields[name] = f.Clone()
		}
		return NewPacket(fields)
	default:
		return v
	}
}

// Equal reports deep structural equality of a and b.
func Equal(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindNil:
		return true
	case KindInt:
		return a.I == b.I
	case KindStr:
		return a.S == b.S
	case KindBool:
		return a.B == b.B
	case KindTuple:
		if len(a.Tuple) != len(b.Tuple) {
			return false
		}
		for i := range a.Tuple {
			if !Equal(a.Tuple[i], b.Tuple[i]) {
				return false
			}
		}
		return true
	case KindList:
		if len(a.List.Elems) != len(b.List.Elems) {
			return false
		}
		for i := range a.List.Elems {
			if !Equal(a.List.Elems[i], b.List.Elems[i]) {
				return false
			}
		}
		return true
	case KindMap:
		if a.Map.Len() != b.Map.Len() {
			return false
		}
		if a.Map == b.Map {
			return true
		}
		for enc, ae := range a.Map.entries {
			be, ok := b.Map.entries[enc]
			if !ok || !Equal(ae.val, be.val) {
				return false
			}
		}
		return true
	case KindPacket:
		if len(a.Pkt.Fields) != len(b.Pkt.Fields) {
			return false
		}
		for name, av := range a.Pkt.Fields {
			bv, ok := b.Pkt.Fields[name]
			if !ok || !Equal(av, bv) {
				return false
			}
		}
		return true
	}
	return false
}

// String renders v as NFLang source text (round-trippable for scalars,
// tuples and lists).
func (v Value) String() string {
	switch v.Kind {
	case KindNil:
		return "nil"
	case KindInt:
		return fmt.Sprintf("%d", v.I)
	case KindStr:
		return fmt.Sprintf("%q", v.S)
	case KindBool:
		return fmt.Sprintf("%v", v.B)
	case KindTuple:
		parts := make([]string, len(v.Tuple))
		for i, e := range v.Tuple {
			parts[i] = e.String()
		}
		return "(" + strings.Join(parts, ", ") + ")"
	case KindList:
		parts := make([]string, len(v.List.Elems))
		for i, e := range v.List.Elems {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case KindMap:
		keys := v.Map.Keys()
		parts := make([]string, len(keys))
		for i, k := range keys {
			val, _, _ := v.Map.Get(k)
			parts[i] = k.String() + ": " + val.String()
		}
		return "{" + strings.Join(parts, ", ") + "}"
	case KindPacket:
		names := make([]string, 0, len(v.Pkt.Fields))
		for name := range v.Pkt.Fields {
			names = append(names, name)
		}
		sort.Strings(names)
		parts := make([]string, len(names))
		for i, name := range names {
			parts[i] = name + "=" + v.Pkt.Fields[name].String()
		}
		return "pkt{" + strings.Join(parts, " ") + "}"
	}
	return "?"
}

// Hash is the deterministic NFLang hash builtin (FNV-1a over the canonical
// key encoding). It is shared by the concrete interpreter and the model
// interpreter so hash-mode load balancing agrees on both sides.
func Hash(v Value) (int64, error) {
	var buf [64]byte
	key, err := appendKey(buf[:0], v)
	if err != nil {
		return 0, fmt.Errorf("hash: %w", err)
	}
	h := fnv.New64a()
	_, _ = h.Write(key)
	return int64(h.Sum64() & 0x7fffffffffffffff), nil
}
