// Package dataplane compiles a synthesized model.Model into a fast
// match-action engine: the serving-side counterpart of the synthesis
// pipeline. Where model.Instance re-evaluates every table entry's boxed
// terms per packet, the compiled Engine dispatches through a decision
// tree over discriminating packet fields and executes unboxed closures
// over raw netpkt fields and a flat state array — no value.Value
// boxing, no map-by-name lookups and (steady state) no allocations on
// the per-packet path.
//
// The engine is behaviorally identical to model.Instance: same outputs,
// same state trajectory, same first-match priority semantics including
// the implicit low-priority drop. Differential fuzzing over the whole
// corpus (dataplane_test.go, core.DiffTestCompiled) enforces this.
package dataplane

import (
	"fmt"

	"nfactor/internal/value"
)

// maxTuple bounds the arity of unboxed tuples. The corpus keys its
// dictionaries with at most 4-tuples (flow tuples); larger tuples fall
// back to the reference interpreter via a compile error.
const maxTuple = 4

// vkind enumerates the unboxed value kinds.
type vkind uint8

const (
	kNil vkind = iota
	kInt
	kStr
	kBool
	kTuple
)

func (k vkind) String() string {
	switch k {
	case kNil:
		return "nil"
	case kInt:
		return "int"
	case kStr:
		return "string"
	case kBool:
		return "bool"
	case kTuple:
		return "tuple"
	}
	return "?"
}

// scalar is one unboxed scalar: nil, int, string or bool (bool stored in
// i as 0/1). scalar is comparable, so it keys dispatch-tree case maps.
type scalar struct {
	k vkind
	i int64
	s string
}

func mkInt(i int64) scalar  { return scalar{k: kInt, i: i} }
func mkStr(s string) scalar { return scalar{k: kStr, s: s} }
func mkBool(b bool) scalar {
	if b {
		return scalar{k: kBool, i: 1}
	}
	return scalar{k: kBool}
}

func (s scalar) toValue() value.Value {
	switch s.k {
	case kInt:
		return value.Int(s.i)
	case kStr:
		return value.Str(s.s)
	case kBool:
		return value.Bool(s.i != 0)
	default:
		return value.Nil()
	}
}

func scalarOf(v value.Value) (scalar, error) {
	switch v.Kind {
	case value.KindNil:
		return scalar{}, nil
	case value.KindInt:
		return mkInt(v.I), nil
	case value.KindStr:
		return mkStr(v.S), nil
	case value.KindBool:
		return mkBool(v.B), nil
	default:
		return scalar{}, fmt.Errorf("dataplane: no unboxed form for %s", v.Kind)
	}
}

// rv is an unboxed runtime value: a scalar, or (k == kTuple) a tuple of
// n scalars stored in the evaluation context's arena at offset toff.
// Keeping the tuple payload out of line makes rv 40 bytes, so the
// closure-return convention every compiled expression uses is a cheap
// register-sized copy rather than a 170-byte duffcopy. Arena offsets
// stay valid when the arena grows; per-packet slots are recycled at the
// start of each packet, while offsets below ctx.nconst hold compile-time
// constant tuples and persist for the engine's lifetime.
type rv struct {
	scalar
	n    uint8
	toff uint32
}

func rvScalar(s scalar) rv { return rv{scalar: s} }

var rvTrue = rvScalar(mkBool(true))
var rvFalse = rvScalar(mkBool(false))

func rvBool(b bool) rv {
	if b {
		return rvTrue
	}
	return rvFalse
}

func toValue(x rv, c *ctx) value.Value {
	if x.k == kTuple {
		elems := make([]value.Value, x.n)
		el := &c.tups[x.toff]
		for i := 0; i < int(x.n); i++ {
			elems[i] = el[i].toValue()
		}
		return value.TupleOf(elems...)
	}
	return x.scalar.toValue()
}

// mval is the owned (arena-free) form of a value: what state slots and
// map values store, so their tuples survive across packets.
type mval struct {
	scalar
	n uint8
	e [maxTuple]scalar
}

// mvalOf converts a boxed value to its owned unboxed form. Lists, maps
// and packets have no unboxed representation (they are handled
// structurally by the compiler) and report an error.
func mvalOf(v value.Value) (mval, error) {
	if v.Kind == value.KindTuple {
		if len(v.Tuple) > maxTuple {
			return mval{}, fmt.Errorf("dataplane: tuple arity %d exceeds %d", len(v.Tuple), maxTuple)
		}
		out := mval{scalar: scalar{k: kTuple}, n: uint8(len(v.Tuple))}
		for i, e := range v.Tuple {
			ev, err := scalarOf(e)
			if err != nil {
				return mval{}, fmt.Errorf("dataplane: nested tuple")
			}
			out.e[i] = ev
		}
		return out, nil
	}
	s, err := scalarOf(v)
	if err != nil {
		return mval{}, err
	}
	return mval{scalar: s}, nil
}

func (v mval) toValue() value.Value {
	if v.k == kTuple {
		elems := make([]value.Value, v.n)
		for i := 0; i < int(v.n); i++ {
			elems[i] = v.e[i].toValue()
		}
		return value.TupleOf(elems...)
	}
	return v.scalar.toValue()
}

// mkey is the comparable map-key form of a value: n == 0 encodes a
// scalar key (e[0]), n >= 1 a tuple key. Struct equality coincides with
// value.Value key-encoding equality, so rmap lookups agree with
// value.MapVal lookups — without ever building an encoding string.
type mkey struct {
	n uint8
	e [maxTuple]scalar
}

func keyOf(x rv, c *ctx) (mkey, error) {
	if x.k == kTuple {
		if x.n == 0 {
			return mkey{}, fmt.Errorf("dataplane: empty tuple key")
		}
		k := mkey{n: x.n}
		el := &c.tups[x.toff]
		copy(k.e[:], el[:x.n])
		return k, nil
	}
	if x.k == kNil {
		// value.Value permits nil keys ("n;"); keep parity.
		return mkey{n: 0, e: [maxTuple]scalar{{k: kNil}}}, nil
	}
	return mkey{n: 0, e: [maxTuple]scalar{x.scalar}}, nil
}

func mkeyOf(v value.Value) (mkey, error) {
	mv, err := mvalOf(v)
	if err != nil {
		return mkey{}, err
	}
	if mv.k == kTuple {
		if mv.n == 0 {
			return mkey{}, fmt.Errorf("dataplane: empty tuple key")
		}
		return mkey{n: mv.n, e: mv.e}, nil
	}
	if mv.k == kNil {
		return mkey{n: 0, e: [maxTuple]scalar{{k: kNil}}}, nil
	}
	return mkey{n: 0, e: [maxTuple]scalar{mv.scalar}}, nil
}

func (k mkey) toValue() value.Value {
	if k.n == 0 {
		return k.e[0].toValue()
	}
	elems := make([]value.Value, k.n)
	for i := 0; i < int(k.n); i++ {
		elems[i] = k.e[i].toValue()
	}
	return value.TupleOf(elems...)
}

// rmap is an unboxed state map. Lookups with an mkey never allocate;
// overwriting an existing key never allocates; only inserting a brand
// new key (flow setup) pays the map-growth cost.
type rmap map[mkey]mval

func rmapOf(v value.Value) (rmap, error) {
	if v.Kind != value.KindMap {
		return nil, fmt.Errorf("dataplane: %s is not a map", v.Kind)
	}
	out := make(rmap, v.Map.Len())
	for _, kv := range v.Map.Keys() {
		val, _, err := v.Map.Get(kv)
		if err != nil {
			return nil, err
		}
		k, err := mkeyOf(kv)
		if err != nil {
			return nil, err
		}
		vr, err := mvalOf(val)
		if err != nil {
			return nil, err
		}
		out[k] = vr
	}
	return out, nil
}

func (m rmap) toValue() value.Value {
	out := value.NewMap()
	for k, v := range m {
		_ = out.Map.Set(k.toValue(), v.toValue())
	}
	return out
}

// sampleValue boxes at most max entries — whichever Go's map iteration
// yields, a sample rather than a canonical prefix. O(max) regardless of
// table size; inspectors sort the handful they receive.
func (m rmap) sampleValue(max int) value.Value {
	out := value.NewMap()
	for k, v := range m {
		if out.Map.Len() >= max {
			break
		}
		_ = out.Map.Set(k.toValue(), v.toValue())
	}
	return out
}

func (m rmap) clone() rmap {
	out := make(rmap, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// rvEqual mirrors value.Equal: mixed kinds are unequal (not an error).
func rvEqual(a, b rv, c *ctx) bool {
	if a.k != b.k {
		return false
	}
	switch a.k {
	case kNil:
		return true
	case kInt:
		return a.i == b.i
	case kStr:
		return a.s == b.s
	case kBool:
		return (a.i != 0) == (b.i != 0)
	case kTuple:
		if a.n != b.n {
			return false
		}
		ae, be := &c.tups[a.toff], &c.tups[b.toff]
		for i := 0; i < int(a.n); i++ {
			if !scalarEqual(ae[i], be[i]) {
				return false
			}
		}
		return true
	}
	return false
}

func scalarEqual(a, b scalar) bool {
	if a.k != b.k {
		return false
	}
	switch a.k {
	case kInt:
		return a.i == b.i
	case kStr:
		return a.s == b.s
	case kBool:
		return (a.i != 0) == (b.i != 0)
	default:
		return true
	}
}

// scalarLess orders scalars for the deterministic shard hash: by kind,
// then payload.
func scalarLess(a, b scalar) bool {
	if a.k != b.k {
		return a.k < b.k
	}
	switch a.k {
	case kInt, kBool:
		return a.i < b.i
	case kStr:
		return a.s < b.s
	default:
		return false
	}
}

// binop mirrors value.BinOp bit for bit on unboxed operands (&&/|| are
// short-circuited by the compiler and never reach here).
func binop(op string, a, b rv, c *ctx) (rv, error) {
	switch op {
	case "+":
		if a.k == kInt && b.k == kInt {
			return rvScalar(mkInt(a.i + b.i)), nil
		}
		if a.k == kStr && b.k == kStr {
			return rvScalar(mkStr(a.s + b.s)), nil
		}
		return rv{}, typeErr(op, a, b)
	case "-", "*", "/", "%":
		if a.k != kInt || b.k != kInt {
			return rv{}, typeErr(op, a, b)
		}
		switch op {
		case "-":
			return rvScalar(mkInt(a.i - b.i)), nil
		case "*":
			return rvScalar(mkInt(a.i * b.i)), nil
		case "/":
			if b.i == 0 {
				return rv{}, fmt.Errorf("division by zero")
			}
			return rvScalar(mkInt(a.i / b.i)), nil
		default:
			if b.i == 0 {
				return rv{}, fmt.Errorf("modulo by zero")
			}
			m := a.i % b.i
			if m < 0 {
				if b.i < 0 {
					m += -b.i
				} else {
					m += b.i
				}
			}
			return rvScalar(mkInt(m)), nil
		}
	case "==":
		return rvBool(rvEqual(a, b, c)), nil
	case "!=":
		return rvBool(!rvEqual(a, b, c)), nil
	case "<", "<=", ">", ">=":
		cmp, err := rvCompare(a, b)
		if err != nil {
			return rv{}, fmt.Errorf("%s: %w", op, err)
		}
		switch op {
		case "<":
			return rvBool(cmp < 0), nil
		case "<=":
			return rvBool(cmp <= 0), nil
		case ">":
			return rvBool(cmp > 0), nil
		default:
			return rvBool(cmp >= 0), nil
		}
	case "&&", "||":
		if a.k != kBool || b.k != kBool {
			return rv{}, typeErr(op, a, b)
		}
		if op == "&&" {
			return rvBool(a.i != 0 && b.i != 0), nil
		}
		return rvBool(a.i != 0 || b.i != 0), nil
	default:
		return rv{}, fmt.Errorf("unknown binary operator %q", op)
	}
}

func rvCompare(a, b rv) (int, error) {
	if a.k == kInt && b.k == kInt {
		switch {
		case a.i < b.i:
			return -1, nil
		case a.i > b.i:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if a.k == kStr && b.k == kStr {
		switch {
		case a.s < b.s:
			return -1, nil
		case a.s > b.s:
			return 1, nil
		default:
			return 0, nil
		}
	}
	return 0, fmt.Errorf("cannot order %s and %s", a.k, b.k)
}

func unop(op string, a rv) (rv, error) {
	switch op {
	case "-":
		if a.k != kInt {
			return rv{}, fmt.Errorf("unary - on %s", a.k)
		}
		return rvScalar(mkInt(-a.i)), nil
	case "!":
		if a.k != kBool {
			return rv{}, fmt.Errorf("unary ! on %s", a.k)
		}
		return rvBool(a.i == 0), nil
	default:
		return rv{}, fmt.Errorf("unknown unary operator %q", op)
	}
}

func typeErr(op string, a, b rv) error {
	return fmt.Errorf("operator %s on %s and %s", op, a.k, b.k)
}

// --- allocation-free canonical hashing --------------------------------
//
// value.Hash is FNV-1a over the value's canonical key encoding. The
// reference builds the encoding string (allocating); here the same bytes
// stream through an incremental hasher, so hash-mode load balancing
// agrees with the interpreter at zero allocation cost.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

type fnv64 uint64

func (h *fnv64) wbyte(b byte) { *h = (*h ^ fnv64(b)) * fnvPrime64 }

func (h *fnv64) wstring(s string) {
	for i := 0; i < len(s); i++ {
		h.wbyte(s[i])
	}
}

// wdecimal streams the decimal rendering of v (matching fmt's %d).
func (h *fnv64) wdecimal(v int64) {
	var buf [20]byte
	neg := v < 0
	u := uint64(v)
	if neg {
		h.wbyte('-')
		u = -u
	}
	pos := len(buf)
	for {
		pos--
		buf[pos] = '0' + byte(u%10)
		u /= 10
		if u == 0 {
			break
		}
	}
	for ; pos < len(buf); pos++ {
		h.wbyte(buf[pos])
	}
}

// wscalar streams value.appendKey's bytes for one scalar.
func (h *fnv64) wscalar(s scalar) error {
	switch s.k {
	case kInt:
		h.wbyte('i')
		h.wdecimal(s.i)
		h.wbyte(';')
	case kStr:
		h.wbyte('s')
		h.wdecimal(int64(len(s.s)))
		h.wbyte(':')
		h.wstring(s.s)
		h.wbyte(';')
	case kBool:
		h.wbyte('b')
		if s.i != 0 {
			h.wstring("true")
		} else {
			h.wstring("false")
		}
		h.wbyte(';')
	case kNil:
		h.wstring("n;")
	default:
		return fmt.Errorf("unhashable kind %s", s.k)
	}
	return nil
}

// rvHash returns value.Hash of the corresponding boxed value.
func rvHash(x rv, c *ctx) (int64, error) {
	h := fnv64(fnvOffset64)
	if x.k == kTuple {
		h.wbyte('t')
		h.wdecimal(int64(x.n))
		h.wbyte('(')
		el := &c.tups[x.toff]
		for i := 0; i < int(x.n); i++ {
			if err := h.wscalar(el[i]); err != nil {
				return 0, fmt.Errorf("hash: %w", err)
			}
		}
		h.wbyte(')')
	} else if err := h.wscalar(x.scalar); err != nil {
		return 0, fmt.Errorf("hash: %w", err)
	}
	return int64(uint64(h) & 0x7fffffffffffffff), nil
}
