// Package hfta implements the high-level query node: it merges the
// partial aggregates evicted from the LFTA into exact per-epoch query
// answers, and provides a reference (oracle) aggregator used to verify
// that the phantom-sharing LFTA loses no information.
//
// Within an epoch the HFTA may see several partials for the same group
// (one per eviction plus the end-of-epoch flush); they combine under the
// aggregate operations. The HFTA runs in host memory, but with parallel
// LFTA shards its merge map is on the ingest path, so the state is keyed
// by packed integers (see key.go) and split into lock shards by key hash:
// concurrent flushes from different LFTA shards rarely touch the same
// lock, and the sequential path pays only an uncontended mutex.
package hfta

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/attr"
	"repro/internal/lfta"
	"repro/internal/stream"
)

// Row is one finalized query answer: the group of a query relation in an
// epoch with its aggregate values.
type Row struct {
	Rel   attr.Set
	Epoch uint32
	Key   []uint32
	Aggs  []int64
}

// keyShards is the number of lock shards per query relation; a power of
// two so shard selection is a mask of the key hash.
const keyShards = 16

// arenaBlock is the growth quantum (in int64 slots) of a shard's
// accumulator arena.
const arenaBlock = 1024

// groupMap holds one epoch's groups for one lock shard, in the map
// variant matching the relation's arity (exactly one field is non-nil).
type groupMap struct {
	small map[uint64][]int64
	wide  map[wideKey][]int64
	jumbo map[jumboKey][]int64
}

func newGroupMap(arity int) *groupMap {
	switch {
	case arity <= smallArity:
		return &groupMap{small: make(map[uint64][]int64)}
	case arity <= wideArity:
		return &groupMap{wide: make(map[wideKey][]int64)}
	default:
		return &groupMap{jumbo: make(map[jumboKey][]int64)}
	}
}

// clear empties the group map for reuse. The builtin keeps the map's
// bucket storage, so a recycled groupMap absorbs a same-sized epoch
// without growing — the core of the per-epoch allocation pooling.
func (gm *groupMap) clear() {
	switch {
	case gm.small != nil:
		clear(gm.small)
	case gm.wide != nil:
		clear(gm.wide)
	default:
		clear(gm.jumbo)
	}
}

func (gm *groupMap) len() int {
	switch {
	case gm.small != nil:
		return len(gm.small)
	case gm.wide != nil:
		return len(gm.wide)
	default:
		return len(gm.jumbo)
	}
}

// relShard is one lock shard of a relation's state: per-epoch group maps
// plus an arena the accumulator slices are carved from (one allocation per
// arenaBlock/len(aggs) new groups instead of one per group).
type relShard struct {
	mu     sync.Mutex
	epochs map[uint32]*groupMap
	pool   []*groupMap // cleared maps from dropped epochs, ready for reuse
	arena  []int64
}

// take returns a group map for a new epoch, recycling a dropped epoch's
// cleared map when one is pooled. Caller holds the shard lock.
func (sh *relShard) take(arity int) *groupMap {
	if n := len(sh.pool); n > 0 {
		gm := sh.pool[n-1]
		sh.pool[n-1] = nil
		sh.pool = sh.pool[:n-1]
		return gm
	}
	return newGroupMap(arity)
}

// alloc carves a fresh accumulator (initialized to the aggregate
// identities) out of the shard arena. Caller holds the shard lock.
func (sh *relShard) alloc(aggs []lfta.AggSpec) []int64 {
	n := len(aggs)
	if len(sh.arena)+n > cap(sh.arena) {
		size := arenaBlock
		if size < n {
			size = n
		}
		sh.arena = make([]int64, 0, size)
	}
	start := len(sh.arena)
	sh.arena = sh.arena[:start+n]
	acc := sh.arena[start : start+n : start+n]
	for i, spec := range aggs {
		acc[i] = spec.Op.Identity()
	}
	return acc
}

// relState is the merge state of one query relation.
type relState struct {
	arity  int
	shards [keyShards]relShard
}

// merge folds one partial (key, deltas) into the epoch's group state.
// Safe for concurrent use; key and deltas are not retained.
func (rs *relState) merge(key []uint32, deltas []int64, epoch uint32, aggs []lfta.AggSpec) {
	var (
		sk uint64
		wk wideKey
		jk jumboKey
		h  uint64
	)
	switch {
	case rs.arity <= smallArity:
		sk = packSmall(key)
		h = mix64(sk)
	case rs.arity <= wideArity:
		wk = packWide(key)
		h = hashWords(key)
	default:
		jk = packJumbo(key)
		h = hashWords(key)
	}
	sh := &rs.shards[h&(keyShards-1)]
	sh.mu.Lock()
	gm := sh.epochs[epoch]
	if gm == nil {
		gm = sh.take(rs.arity)
		sh.epochs[epoch] = gm
	}
	var acc []int64
	switch {
	case gm.small != nil:
		acc = gm.small[sk]
		if acc == nil {
			acc = sh.alloc(aggs)
			gm.small[sk] = acc
		}
	case gm.wide != nil:
		acc = gm.wide[wk]
		if acc == nil {
			acc = sh.alloc(aggs)
			gm.wide[wk] = acc
		}
	default:
		acc = gm.jumbo[jk]
		if acc == nil {
			acc = sh.alloc(aggs)
			gm.jumbo[jk] = acc
		}
	}
	for i, spec := range aggs {
		acc[i] = spec.Op.Combine(acc[i], deltas[i])
	}
	sh.mu.Unlock()
}

// Aggregator accumulates evictions per (query, epoch, group). All methods
// are safe for concurrent use.
type Aggregator struct {
	aggs  []lfta.AggSpec
	state map[attr.Set]*relState
}

// New builds an aggregator for the given query relations and aggregates.
func New(queries []attr.Set, aggs []lfta.AggSpec) (*Aggregator, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("hfta: need at least one query")
	}
	if len(aggs) == 0 {
		return nil, fmt.Errorf("hfta: need at least one aggregate")
	}
	a := &Aggregator{
		aggs:  append([]lfta.AggSpec(nil), aggs...),
		state: make(map[attr.Set]*relState, len(queries)),
	}
	for _, q := range queries {
		if q.IsEmpty() {
			return nil, fmt.Errorf("hfta: empty query relation")
		}
		rs := &relState{arity: q.Size()}
		for i := range rs.shards {
			rs.shards[i].epochs = make(map[uint32]*groupMap)
		}
		a.state[q] = rs
	}
	return a, nil
}

// Sink returns the aggregator as an lfta.Sink.
func (a *Aggregator) Sink() lfta.Sink { return a.Consume }

// ConcurrentSink returns the aggregator as an lfta.Sink for parallel LFTA
// shards. Consume is itself safe for concurrent use (the state is lock-
// sharded by key hash), so this is now the same as Sink; the method
// survives for callers written against the old single-mutex design.
func (a *Aggregator) ConcurrentSink() lfta.Sink { return a.Consume }

// BatchSink returns the aggregator's batch ingest as an lfta.BatchSink,
// the preferred hookup for runtimes with per-shard eviction buffers
// (lfta.Runtime.SetBatchSink).
func (a *Aggregator) BatchSink() lfta.BatchSink { return a.ConsumeBatch }

// Consume folds one eviction into the per-epoch state. Evictions for
// relations that are not user queries are ignored (phantoms never reach
// the HFTA in a correct runtime, but defense costs nothing). Safe for
// concurrent use; the eviction's slices are not retained.
func (a *Aggregator) Consume(ev lfta.Eviction) {
	rs := a.state[ev.Rel]
	if rs == nil {
		return
	}
	rs.merge(ev.Key, ev.Aggs, ev.Epoch, a.aggs)
}

// ConsumeBatch folds a batch of evictions, caching the per-relation state
// lookup across consecutive evictions of the same relation (flushed
// batches arrive grouped by table). Safe for concurrent use; the batch
// and its slices are released back to the caller on return.
func (a *Aggregator) ConsumeBatch(evs []lfta.Eviction) {
	var (
		lastRel attr.Set
		rs      *relState
	)
	for i := range evs {
		ev := &evs[i]
		if i == 0 || ev.Rel != lastRel {
			rs = a.state[ev.Rel]
			lastRel = ev.Rel
		}
		if rs == nil {
			continue
		}
		rs.merge(ev.Key, ev.Aggs, ev.Epoch, a.aggs)
	}
}

// Rows finalizes and returns the answers for one query and epoch, sorted
// by group key (numeric, per attribute). The state for that (query,
// epoch) remains available until Drop is called.
//
// The read-out costs a constant number of allocations, not one per group:
// the rows' keys and aggregates are copied into two flat arenas, and the
// sort runs over a pointer-free array. For arity ≤ 2 that array is the
// packed uint64 keys (packSmall's order is lessKeys'): once sorted, each
// key's accumulator is looked up and copied into the arenas in row
// order. Wider keys are copied in map order and an index permutation is
// sorted in lessKeys order. Each Row's Key and Aggs slice the arenas with
// a full slice expression (cap == len), so an append to one row
// reallocates instead of overwriting its neighbour, and no two calls
// share storage.
func (a *Aggregator) Rows(rel attr.Set, epoch uint32) []Row {
	rs := a.state[rel]
	if rs == nil {
		return nil
	}
	// Hold every lock shard for the whole read-out, so the groups counted
	// to size the arenas are the groups copied. Merges hold one shard at
	// a time and every read-out locks in index order, so this cannot
	// deadlock.
	for i := range rs.shards {
		rs.shards[i].mu.Lock()
	}
	defer func() {
		for i := range rs.shards {
			rs.shards[i].mu.Unlock()
		}
	}()
	var gms [keyShards]*groupMap
	n := 0
	for i := range rs.shards {
		if gms[i] = rs.shards[i].epochs[epoch]; gms[i] != nil {
			n += gms[i].len()
		}
	}
	if n == 0 {
		return nil
	}
	ar, na := rs.arity, len(a.aggs)
	keys := make([]uint32, n*ar)
	aggs := make([]int64, n*na)
	out := make([]Row, n)
	row := func(j, i int) {
		k, g := i*ar, i*na
		out[j] = Row{Rel: rel, Epoch: epoch, Key: keys[k : k+ar : k+ar], Aggs: aggs[g : g+na : g+na]}
	}
	if ar <= smallArity {
		packed := make([]uint64, 0, n)
		for _, gm := range gms {
			if gm != nil {
				for k := range gm.small {
					packed = append(packed, k)
				}
			}
		}
		slices.Sort(packed)
		for j, k := range packed {
			unpackSmall(k, ar, keys[j*ar:j*ar])
			copy(aggs[j*na:], gms[mix64(k)&(keyShards-1)].small[k]) // k's shard, as merge picks it
			row(j, j)
		}
		return out
	}
	i := 0
	for _, gm := range gms {
		switch {
		case gm == nil:
		case gm.wide != nil:
			for k, acc := range gm.wide {
				copy(keys[i*ar:], k[:ar])
				copy(aggs[i*na:], acc)
				i++
			}
		default:
			for k, acc := range gm.jumbo {
				copy(keys[i*ar:], k[:ar])
				copy(aggs[i*na:], acc)
				i++
			}
		}
	}
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(x, y int32) int {
		return slices.Compare(keys[int(x)*ar:int(x)*ar+ar], keys[int(y)*ar:int(y)*ar+ar])
	})
	for j, i := range perm {
		row(j, int(i))
	}
	return out
}

// AllRows returns every finalized row across queries and epochs, sorted
// by (relation, epoch, key).
func (a *Aggregator) AllRows() []Row {
	var rels []attr.Set
	for r := range a.state {
		rels = append(rels, r)
	}
	attr.SortSets(rels)
	var out []Row
	for _, r := range rels {
		for _, e := range a.Epochs(r) {
			out = append(out, a.Rows(r, e)...)
		}
	}
	return out
}

// Epochs returns the epochs with state for a query, ascending.
func (a *Aggregator) Epochs(rel attr.Set) []uint32 {
	rs := a.state[rel]
	if rs == nil {
		return nil
	}
	seen := make(map[uint32]bool)
	var out []uint32
	for i := range rs.shards {
		sh := &rs.shards[i]
		sh.mu.Lock()
		for e := range sh.epochs {
			if !seen[e] {
				seen[e] = true
				out = append(out, e)
			}
		}
		sh.mu.Unlock()
	}
	slices.Sort(out)
	return out
}

// Drop releases the state of one epoch across all queries. The epoch's
// group maps are cleared and pooled for reuse by later epochs, so a
// steady Drop-after-emit cadence stops allocating once map capacities
// reach the per-epoch group count.
func (a *Aggregator) Drop(epoch uint32) {
	for _, rs := range a.state {
		for i := range rs.shards {
			sh := &rs.shards[i]
			sh.mu.Lock()
			if gm := sh.epochs[epoch]; gm != nil {
				gm.clear()
				sh.pool = append(sh.pool, gm)
				delete(sh.epochs, epoch)
			}
			sh.mu.Unlock()
		}
	}
}

// Reset drops all epochs of all queries, keeping the allocated group
// maps (pooled) and arena blocks for reuse: the aggregator behaves as
// freshly constructed but a subsequent same-shaped workload allocates
// almost nothing. Not safe to call concurrently with merges.
func (a *Aggregator) Reset() {
	for _, rs := range a.state {
		for i := range rs.shards {
			sh := &rs.shards[i]
			sh.mu.Lock()
			for e, gm := range sh.epochs {
				gm.clear()
				sh.pool = append(sh.pool, gm)
				delete(sh.epochs, e)
			}
			// All accumulators are dropped with their epochs, so the
			// current arena block can be rewound and re-carved.
			sh.arena = sh.arena[:0]
			sh.mu.Unlock()
		}
	}
}

// GroupCount returns the number of distinct groups a query produced in an
// epoch — the measured g_R signal the adaptive engine feeds back into the
// optimizer.
func (a *Aggregator) GroupCount(rel attr.Set, epoch uint32) int {
	rs := a.state[rel]
	if rs == nil {
		return 0
	}
	n := 0
	for i := range rs.shards {
		sh := &rs.shards[i]
		sh.mu.Lock()
		if gm := sh.epochs[epoch]; gm != nil {
			n += gm.len()
		}
		sh.mu.Unlock()
	}
	return n
}

// Reference computes exact query answers directly from the records (no
// LFTA, no hash tables): the oracle against which the two-level pipeline
// is verified. epochLen 0 means a single unbounded epoch.
func Reference(recs []stream.Record, queries []attr.Set, aggs []lfta.AggSpec, epochLen uint32) []Row {
	agg, err := New(queries, aggs)
	if err != nil {
		return nil
	}
	e := stream.Epoch{Length: epochLen}
	deltas := make([]int64, len(aggs))
	var keyBuf []uint32
	for i := range recs {
		rec := &recs[i]
		for j, spec := range aggs {
			if spec.Input < 0 {
				deltas[j] = 1
			} else {
				deltas[j] = int64(rec.Attrs[spec.Input])
			}
		}
		for _, q := range queries {
			keyBuf = q.Project(rec.Attrs, keyBuf)
			agg.Consume(lfta.Eviction{
				Rel:   q,
				Key:   keyBuf,
				Aggs:  deltas,
				Epoch: e.Of(rec.Time),
			})
		}
	}
	return agg.AllRows()
}

// Equal reports whether two row sets are identical (same order, groups,
// and aggregate values); rows from AllRows and Reference compare directly.
func Equal(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Rel != b[i].Rel || a[i].Epoch != b[i].Epoch {
			return false
		}
		if len(a[i].Key) != len(b[i].Key) || len(a[i].Aggs) != len(b[i].Aggs) {
			return false
		}
		for j := range a[i].Key {
			if a[i].Key[j] != b[i].Key[j] {
				return false
			}
		}
		for j := range a[i].Aggs {
			if a[i].Aggs[j] != b[i].Aggs[j] {
				return false
			}
		}
	}
	return true
}

// HavingCountAtLeast filters rows to those whose aggregate at index aggIdx
// reaches min — the paper's introductory "report ... provided this number
// of packets is more than 100" query shape.
func HavingCountAtLeast(rows []Row, aggIdx int, min int64) []Row {
	out := rows[:0:0]
	for _, r := range rows {
		if aggIdx < len(r.Aggs) && r.Aggs[aggIdx] >= min {
			out = append(out, r)
		}
	}
	return out
}
