package hfta

import (
	"slices"

	"repro/internal/attr"
)

// Integer-keyed group storage. The old implementation encoded every group
// key into a heap-allocated string (4 bytes per attribute, little-endian)
// and used one map[string] per epoch; every eviction paid an encode
// allocation and every read-out a decode allocation. Keys here are packed
// into comparable integer types instead, chosen by the relation's arity —
// which is fixed per relation, so the arity never needs to be stored in
// the key itself:
//
//	arity ≤ 2:  one uint64 (attribute 0 in the high word)
//	arity ≤ 8:  [8]uint32 array, unused trailing words zero
//	otherwise:  [attr.MaxAttrs]uint32 array (defensive; no paper workload
//	            groups by more than a handful of attributes)
//
// All three orderings agree with lexicographic comparison of the decoded
// attribute values, so sorted read-out is numeric per attribute.
const (
	// smallArity is the widest group key packed directly into a uint64.
	smallArity = 2
	// wideArity is the widest group key held in the array-backed wideKey.
	wideArity = 8
)

// wideKey is the comparable array-backed key for arities 3..wideArity.
type wideKey [wideArity]uint32

// jumboKey covers every remaining arity up to attr.MaxAttrs.
type jumboKey [attr.MaxAttrs]uint32

// packSmall packs a key of arity 1 or 2 into a uint64 whose numeric order
// equals the lexicographic order of the values.
func packSmall(vals []uint32) uint64 {
	if len(vals) == 1 {
		return uint64(vals[0])
	}
	return uint64(vals[0])<<32 | uint64(vals[1])
}

// unpackSmall appends the arity attribute values packed in k to dst.
func unpackSmall(k uint64, arity int, dst []uint32) []uint32 {
	if arity == 1 {
		return append(dst, uint32(k))
	}
	return append(dst, uint32(k>>32), uint32(k))
}

// packWide copies a key of arity 3..wideArity into a wideKey.
func packWide(vals []uint32) wideKey {
	var k wideKey
	copy(k[:], vals)
	return k
}

// packJumbo copies a key of any supported arity into a jumboKey.
func packJumbo(vals []uint32) jumboKey {
	var k jumboKey
	copy(k[:], vals)
	return k
}

// mix64 is the splitmix64 finalizer: a cheap full-avalanche mix used to
// spread packed keys across the aggregator's lock shards.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashWords chains mix64 over the 4-byte words of a key.
func hashWords(vals []uint32) uint64 {
	h := uint64(len(vals))
	for _, v := range vals {
		h = mix64(h ^ uint64(v))
	}
	return h
}

// lessKeys orders decoded group keys lexicographically per attribute — the
// canonical row order of Rows and AllRows. slices.Compare is the same
// order as a three-way comparison.
func lessKeys(a, b []uint32) bool { return slices.Compare(a, b) < 0 }
