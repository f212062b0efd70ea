package hfta

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/attr"
	"repro/internal/hashtab"
	"repro/internal/lfta"
)

// rowsAggs exercises every combine operation in one read-out.
var rowsAggs = []lfta.AggSpec{
	{Op: hashtab.Sum, Input: -1},
	{Op: hashtab.Min, Input: 0},
	{Op: hashtab.Max, Input: 0},
}

// relOfArity returns the relation over the first n attributes.
func relOfArity(n int) attr.Set { return attr.Set(1<<n - 1) }

// rowsFixture feeds an aggregator random partials for several epochs of
// one relation — duplicate groups included, so partials combine — and
// returns it with the reference read-out of every epoch: the groups
// folded in a plain map, copied row by row and ordered by
// sort.Slice(lessKeys).
func rowsFixture(t testing.TB, arity, groups int, seed int64) (*Aggregator, attr.Set, map[uint32][]Row) {
	t.Helper()
	rel := relOfArity(arity)
	agg, err := New([]attr.Set{rel}, rowsAggs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	want := map[uint32][]Row{}
	for epoch := uint32(0); epoch < 3; epoch++ {
		type group struct {
			key  []uint32
			aggs []int64
		}
		folded := map[string]*group{}
		for p := 0; p < 3*groups; p++ {
			key := make([]uint32, arity)
			for i := range key {
				// Fewer values in the leading attributes, so sorting
				// must look past the first word; extremes included.
				switch rng.Intn(8) {
				case 0:
					key[i] = ^uint32(0)
				case 1:
					key[i] = 0
				default:
					key[i] = uint32(rng.Intn(4 + (i+1)*groups/arity))
				}
			}
			deltas := []int64{int64(rng.Intn(9) + 1), rng.Int63n(1000) - 500, rng.Int63n(1000) - 500}
			agg.Consume(lfta.Eviction{Rel: rel, Key: key, Aggs: deltas, Epoch: epoch})
			g := folded[fmt.Sprint(key)]
			if g == nil {
				g = &group{key: key, aggs: make([]int64, len(rowsAggs))}
				for i, s := range rowsAggs {
					g.aggs[i] = s.Op.Identity()
				}
				folded[fmt.Sprint(key)] = g
			}
			for i, s := range rowsAggs {
				g.aggs[i] = s.Op.Combine(g.aggs[i], deltas[i])
			}
		}
		var ref []Row
		for _, g := range folded {
			ref = append(ref, Row{
				Rel: rel, Epoch: epoch,
				Key:  append([]uint32(nil), g.key...),
				Aggs: append([]int64(nil), g.aggs...),
			})
		}
		sort.Slice(ref, func(i, j int) bool { return lessKeys(ref[i].Key, ref[j].Key) })
		want[epoch] = ref
	}
	return agg, rel, want
}

// TestRowsMatchReference pins the flat-arena read-out to the per-row
// copy plus reflection sort it replaced, for every key layout: packed
// uint64 (arity 1, 2), wideKey (5) and jumboKey (10). It also pins the
// arena isolation contract: every Key and Aggs has cap == len, so an
// append to one row cannot overwrite its neighbour, and two read-outs
// share no storage.
func TestRowsMatchReference(t *testing.T) {
	for _, arity := range []int{1, 2, 5, 10} {
		t.Run(fmt.Sprintf("arity%d", arity), func(t *testing.T) {
			agg, rel, want := rowsFixture(t, arity, 300, int64(arity))
			for epoch, ref := range want {
				got := agg.Rows(rel, epoch)
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("epoch %d: Rows differs from the reference (%d vs %d rows)", epoch, len(got), len(ref))
				}
				for i, r := range got {
					if cap(r.Key) != len(r.Key) || cap(r.Aggs) != len(r.Aggs) {
						t.Fatalf("epoch %d row %d: cap(Key)=%d len=%d, cap(Aggs)=%d len=%d",
							epoch, i, cap(r.Key), len(r.Key), cap(r.Aggs), len(r.Aggs))
					}
				}

				// Appending to every row must leave every other row as
				// it was.
				for i := range got {
					got[i].Key = append(got[i].Key, 0xdead)
					got[i].Aggs = append(got[i].Aggs, -1)
				}
				for i := range got {
					if !reflect.DeepEqual(got[i].Key[:arity], ref[i].Key) ||
						!reflect.DeepEqual(got[i].Aggs[:len(rowsAggs)], ref[i].Aggs) {
						t.Fatalf("epoch %d row %d changed after appends to the rows: %+v, want %+v",
							epoch, i, got[i], ref[i])
					}
				}

				// Overwriting every word of one read-out must not reach
				// the next.
				first := agg.Rows(rel, epoch)
				for _, r := range first {
					for j := range r.Key {
						r.Key[j] = 0xbad
					}
					for j := range r.Aggs {
						r.Aggs[j] = -7
					}
				}
				if second := agg.Rows(rel, epoch); !reflect.DeepEqual(second, ref) {
					t.Fatalf("epoch %d: a second read-out saw writes to the first", epoch)
				}
			}
		})
	}
}

// TestRowsAllocs gates the read-out's allocation count: a 4,096-group
// epoch must cost a small constant number of allocations (the two
// arenas, the sort array and the row headers), not two per group as the
// per-row copy did.
func TestRowsAllocs(t *testing.T) {
	const groups = 4096
	for _, arity := range []int{2, 5} {
		t.Run(fmt.Sprintf("arity%d", arity), func(t *testing.T) {
			rel := relOfArity(arity)
			agg, err := New([]attr.Set{rel}, rowsAggs)
			if err != nil {
				t.Fatal(err)
			}
			key := make([]uint32, arity)
			for g := 0; g < groups; g++ {
				key[0], key[arity-1] = uint32(g*7919), uint32(g)
				agg.Consume(lfta.Eviction{Rel: rel, Key: key, Aggs: []int64{1, 2, 3}})
			}
			var n int
			allocs := testing.AllocsPerRun(20, func() { n = len(agg.Rows(rel, 0)) })
			if n != groups {
				t.Fatalf("read out %d rows; want %d", n, groups)
			}
			if allocs > 6 {
				t.Errorf("Rows over %d groups: %.0f allocs/op; want ≤ 6", groups, allocs)
			}
		})
	}
}

// TestRowsConcurrentWithMerges: a read-out holds every lock shard of its
// relation while merges hold one at a time, so read-outs running beside
// concurrent merges neither deadlock nor race (run under -race), each
// returns a sorted snapshot, and the final read-out equals the reference.
func TestRowsConcurrentWithMerges(t *testing.T) {
	const workers, partials = 4, 2000
	rel := relOfArity(2)
	agg, err := New([]attr.Set{rel}, rowsAggs)
	if err != nil {
		t.Fatal(err)
	}
	evs := make([][]lfta.Eviction, workers)
	var all []lfta.Eviction
	rng := rand.New(rand.NewSource(9))
	for w := range evs {
		for p := 0; p < partials; p++ {
			v := int64(rng.Intn(100))
			ev := lfta.Eviction{Rel: rel, Key: []uint32{uint32(rng.Intn(50)), uint32(rng.Intn(50))}, Aggs: []int64{1, v, v}}
			evs[w] = append(evs[w], ev)
			all = append(all, ev)
		}
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := range evs {
		wg.Add(1)
		go func(evs []lfta.Eviction) {
			defer wg.Done()
			for _, ev := range evs {
				agg.Consume(ev)
			}
		}(evs[w])
	}
	readers := make(chan error, 2)
	for r := 0; r < 2; r++ {
		go func() {
			for {
				rows := agg.Rows(rel, 0)
				for i := 1; i < len(rows); i++ {
					if !lessKeys(rows[i-1].Key, rows[i].Key) {
						readers <- fmt.Errorf("read-out not strictly sorted at row %d: %v, %v", i, rows[i-1].Key, rows[i].Key)
						return
					}
				}
				select {
				case <-done:
					readers <- nil
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	for r := 0; r < 2; r++ {
		if err := <-readers; err != nil {
			t.Error(err)
		}
	}
	ref, err := New([]attr.Set{rel}, rowsAggs)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range all {
		ref.Consume(ev)
	}
	if got, want := agg.Rows(rel, 0), ref.Rows(rel, 0); !reflect.DeepEqual(got, want) {
		t.Errorf("read-out after concurrent merges differs from a sequential fold (%d vs %d rows)", len(got), len(want))
	}
}
