package value

import (
	"testing"
	"testing/quick"
)

func TestScalarConstructors(t *testing.T) {
	if v := Int(42); v.Kind != KindInt || v.I != 42 {
		t.Errorf("Int(42) = %v", v)
	}
	if v := Str("x"); v.Kind != KindStr || v.S != "x" {
		t.Errorf("Str = %v", v)
	}
	if v := Bool(true); v.Kind != KindBool || !v.B {
		t.Errorf("Bool = %v", v)
	}
	if v := Nil(); v.Kind != KindNil {
		t.Errorf("Nil = %v", v)
	}
}

func TestTupleEquality(t *testing.T) {
	a := TupleOf(Int(1), Str("a"))
	b := TupleOf(Int(1), Str("a"))
	c := TupleOf(Int(1), Str("b"))
	if !Equal(a, b) {
		t.Error("equal tuples not Equal")
	}
	if Equal(a, c) {
		t.Error("different tuples Equal")
	}
	if Equal(a, TupleOf(Int(1))) {
		t.Error("tuples of different length Equal")
	}
}

func TestMapTupleKeys(t *testing.T) {
	m := NewMap()
	k1 := TupleOf(Str("1.1.1.1"), Int(80), Str("2.2.2.2"), Int(1234))
	k2 := TupleOf(Str("1.1.1.1"), Int(80), Str("2.2.2.2"), Int(1235))
	if err := m.Map.Set(k1, Int(7)); err != nil {
		t.Fatal(err)
	}
	v, ok, err := m.Map.Get(k1)
	if err != nil || !ok || v.I != 7 {
		t.Fatalf("Get(k1) = %v %v %v", v, ok, err)
	}
	if _, ok, _ := m.Map.Get(k2); ok {
		t.Error("Get(k2) found a value stored under k1")
	}
	// Structurally equal key constructed separately still hits.
	k1b := TupleOf(Str("1.1.1.1"), Int(80), Str("2.2.2.2"), Int(1234))
	if _, ok, _ := m.Map.Get(k1b); !ok {
		t.Error("structurally equal tuple key missed")
	}
}

func TestMapKeyEncodingInjective(t *testing.T) {
	// Nested tuples and strings with separators must not collide.
	pairs := [][2]Value{
		{TupleOf(Str("a;"), Str("b")), TupleOf(Str("a"), Str(";b"))},
		{TupleOf(Int(12), Int(3)), TupleOf(Int(1), Int(23))},
		{Str("i1;"), Int(1)},
		{TupleOf(TupleOf(Int(1)), Int(2)), TupleOf(Int(1), TupleOf(Int(2)))},
	}
	for _, p := range pairs {
		ka, err := p[0].Key()
		if err != nil {
			t.Fatal(err)
		}
		kb, err := p[1].Key()
		if err != nil {
			t.Fatal(err)
		}
		if ka == kb {
			t.Errorf("key collision: %s and %s both encode to %q", p[0], p[1], ka)
		}
	}
}

func TestMapDeleteAndKeysSorted(t *testing.T) {
	m := NewMap()
	for _, i := range []int64{3, 1, 2} {
		_ = m.Map.Set(Int(i), Int(i*10))
	}
	if m.Map.Len() != 3 {
		t.Fatalf("len = %d", m.Map.Len())
	}
	_ = m.Map.Delete(Int(2))
	if m.Map.Len() != 2 {
		t.Fatalf("len after delete = %d", m.Map.Len())
	}
	keys := m.Map.Keys()
	if len(keys) != 2 || keys[0].I != 1 || keys[1].I != 3 {
		t.Errorf("Keys() = %v", keys)
	}
	if err := m.Map.Delete(Int(99)); err != nil {
		t.Errorf("deleting absent key: %v", err)
	}
}

func TestUnhashableKey(t *testing.T) {
	m := NewMap()
	if err := m.Map.Set(NewList(Int(1)), Int(1)); err == nil {
		t.Error("list used as map key did not error")
	}
}

func TestCloneIsolation(t *testing.T) {
	m := NewMap()
	_ = m.Map.Set(Str("k"), Int(1))
	lst := NewList(Int(1), Int(2))
	pkt := NewPacket(map[string]Value{"sip": Str("1.1.1.1")})

	mc, lc, pc := m.Clone(), lst.Clone(), pkt.Clone()
	_ = m.Map.Set(Str("k"), Int(2))
	lst.List.Elems[0] = Int(99)
	pkt.Pkt.Fields["sip"] = Str("9.9.9.9")

	if v, _, _ := mc.Map.Get(Str("k")); v.I != 1 {
		t.Error("map clone aliased original")
	}
	if lc.List.Elems[0].I != 1 {
		t.Error("list clone aliased original")
	}
	if pc.Pkt.Fields["sip"].S != "1.1.1.1" {
		t.Error("packet clone aliased original")
	}
}

func TestHashDeterministic(t *testing.T) {
	a, err := Hash(Str("1.1.1.1"))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Hash(Str("1.1.1.1"))
	if a != b {
		t.Error("hash not deterministic")
	}
	if a < 0 {
		t.Error("hash negative")
	}
	c, _ := Hash(Str("1.1.1.2"))
	if a == c {
		t.Error("suspicious hash collision on near inputs")
	}
	if _, err := Hash(NewMap()); err == nil {
		t.Error("hash of map did not error")
	}
}

func TestIsTruthy(t *testing.T) {
	if b, err := Bool(true).IsTruthy(); err != nil || !b {
		t.Error("Bool(true) not truthy")
	}
	if _, err := Int(1).IsTruthy(); err == nil {
		t.Error("Int truthiness should error")
	}
}

func TestLen(t *testing.T) {
	cases := []struct {
		v    Value
		want int
	}{
		{Str("abc"), 3},
		{TupleOf(Int(1), Int(2)), 2},
		{NewList(Int(1)), 1},
		{NewMap(), 0},
	}
	for _, c := range cases {
		got, err := c.v.Len()
		if err != nil || got != c.want {
			t.Errorf("Len(%s) = %d, %v; want %d", c.v, got, err, c.want)
		}
	}
	if _, err := Int(1).Len(); err == nil {
		t.Error("len(int) should error")
	}
}

// Property: key encoding is injective on int/string/bool scalars and
// flat tuples thereof.
func TestKeyInjectiveProperty(t *testing.T) {
	f := func(a1, b1 int64, s1, s2 string) bool {
		va := TupleOf(Int(a1), Str(s1))
		vb := TupleOf(Int(b1), Str(s2))
		ka, err1 := va.Key()
		kb, err2 := vb.Key()
		if err1 != nil || err2 != nil {
			return false
		}
		return (ka == kb) == Equal(va, vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Equal is reflexive and symmetric on random tuples.
func TestEqualSymmetricProperty(t *testing.T) {
	f := func(a, b int64, s string) bool {
		va := TupleOf(Int(a), Str(s), Bool(a%2 == 0))
		vb := TupleOf(Int(b), Str(s), Bool(b%2 == 0))
		if !Equal(va, va) || !Equal(vb, vb) {
			return false
		}
		return Equal(va, vb) == Equal(vb, va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestKeyAndHashGolden pins the canonical key bytes and the hash builtin
// for the encodings' edge cases: hash-mode load balancing and the
// compiled engine's FNV mirror depend on both staying bit-identical.
func TestKeyAndHashGolden(t *testing.T) {
	cases := []struct {
		v    Value
		key  string
		hash int64
	}{
		{Int(-1), "i-1;", 4833932246082513103},
		{Int(-9223372036854775808), "i-9223372036854775808;", 1490983460127122301},
		{Int(0), "i0;", 3091785023963557669},
		{Int(42), "i42;", 9114074827363780615},
		{Str(""), "s0:;", 7049174756617562829},
		{Str("a:b;c"), "s5:a:b;c;", 8493426040336285391},
		{Str("1:2;"), "s4:1:2;;", 6912958118979291033},
		{Bool(true), "btrue;", 5420496168229172474},
		{Bool(false), "bfalse;", 5089937142057977689},
		{Nil(), "n;", 626991041288398270},
		{TupleOf(Int(-7), Str("x;y:z")), "t2(i-7;s5:x;y:z;)", 2236106135795633995},
		{TupleOf(TupleOf(Int(1), Bool(false)), Nil(), Str("t2(")), "t3(t2(i1;bfalse;)n;s3:t2(;)", 8400000158144635753},
		{TupleOf(), "t0()", 4752721397674942542},
	}
	for _, c := range cases {
		k, err := c.v.Key()
		if err != nil || k != c.key {
			t.Errorf("%s: Key() = %q, %v; want %q", c.v, k, err, c.key)
		}
		h, err := Hash(c.v)
		if err != nil || h != c.hash {
			t.Errorf("%s: Hash() = %d, %v; want %d", c.v, h, err, c.hash)
		}
	}
	if _, err := NewList().Key(); err == nil {
		t.Error("list key encoded; want unhashable error")
	}
}

// TestMapCloneEqualWalkEntries checks Clone is deep (a mutation of the
// clone never shows through the original) and Equal compares by key
// encoding, not insertion order.
func TestMapCloneEqualWalkEntries(t *testing.T) {
	a := NewMap()
	b := NewMap()
	for i := 0; i < 50; i++ {
		_ = a.Map.Set(TupleOf(Str("h"), Int(int64(i))), NewList(Int(int64(i))))
		_ = b.Map.Set(TupleOf(Str("h"), Int(int64(49-i))), NewList(Int(int64(49-i))))
	}
	if !Equal(a, b) {
		t.Fatal("maps with the same entries in different insertion order are not Equal")
	}
	c := a.Clone()
	if !Equal(a, c) {
		t.Fatal("clone not Equal to the original")
	}
	v, _, _ := c.Map.Get(TupleOf(Str("h"), Int(3)))
	v.List.Elems[0] = Int(99)
	_ = c.Map.Delete(TupleOf(Str("h"), Int(4)))
	if w, _, _ := a.Map.Get(TupleOf(Str("h"), Int(3))); w.List.Elems[0].I != 3 {
		t.Error("mutating a cloned map value changed the original")
	}
	if a.Map.Len() != 50 || Equal(a, c) {
		t.Error("deleting from the clone changed the original, or Equal missed the difference")
	}
}
