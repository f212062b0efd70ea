package core

import (
	"fmt"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/backoff"
	"repro/internal/epochstore"
	"repro/internal/hfta"
	"repro/internal/lfta"
)

// Durable epoch persistence. When Options.Store is set, every finalized
// epoch's results are handed to an asynchronous persister goroutine over
// a queue bounded in bytes and appended to the epoch store with retries
// (capped-exponential backoff with seeded jitter). The engine's hot path
// never blocks on the store: if the store is down past the retry budget,
// or the queue is full because persistence cannot keep up, the epoch is
// recorded as unpersisted in the durability ledger and ingest continues —
// graceful degradation, surfaced through Stats/Diagnostics exactly like
// the overload ledger. Checkpoints (format v3) carry the ledger so a
// resumed run still knows which epochs never reached the store.

// Durability is the durable-store accounting: how many closed epochs
// reached the store, and which did not (with why).
type Durability struct {
	// Enabled reports whether a store is attached to the engine.
	Enabled bool
	// Persisted counts epochs whose every query relation reached the store.
	Persisted int
	// Unpersisted lists closed epochs that did not fully persist,
	// ascending. These epochs' answers were still emitted and counted; only
	// their durable copies are missing.
	Unpersisted []uint32
	// QueueFull counts epochs lost to a saturated persist queue (a subset
	// of Unpersisted's causes).
	QueueFull int
	// LastError is the most recent persistence failure, "" if none.
	LastError string
}

// EpochUnpersisted reports whether epoch is in the unpersisted set.
func (d Durability) EpochUnpersisted(epoch uint32) bool {
	for _, e := range d.Unpersisted {
		if e == epoch {
			return true
		}
	}
	return false
}

// durableLedger tracks persistence outcomes. The persister goroutine
// writes it; Stats/Diagnostics read it from the engine's goroutine.
type durableLedger struct {
	mu          sync.Mutex
	persisted   int
	unpersisted map[uint32]string // epoch -> failure reason
	queueFull   int
	lastErr     string
}

func newDurableLedger() *durableLedger {
	return &durableLedger{unpersisted: make(map[uint32]string)}
}

func (l *durableLedger) markPersisted(epoch uint32) {
	l.mu.Lock()
	if _, was := l.unpersisted[epoch]; was {
		delete(l.unpersisted, epoch)
	}
	l.persisted++
	l.mu.Unlock()
}

func (l *durableLedger) markFailed(epoch uint32, reason string, queueFull bool) {
	l.mu.Lock()
	l.unpersisted[epoch] = reason
	l.lastErr = reason
	if queueFull {
		l.queueFull++
	}
	l.mu.Unlock()
}

// restore seeds the ledger from a checkpoint's v3 footer.
func (l *durableLedger) restore(persisted int, unpersisted []uint32, queueFull int) {
	l.mu.Lock()
	l.persisted = persisted
	l.queueFull = queueFull
	l.unpersisted = make(map[uint32]string, len(unpersisted))
	for _, e := range unpersisted {
		l.unpersisted[e] = "unpersisted at checkpoint"
	}
	l.mu.Unlock()
}

func (l *durableLedger) snapshot(enabled bool) Durability {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := Durability{
		Enabled:   enabled,
		Persisted: l.persisted,
		QueueFull: l.queueFull,
		LastError: l.lastErr,
	}
	for e := range l.unpersisted {
		d.Unpersisted = append(d.Unpersisted, e)
	}
	slices.Sort(d.Unpersisted)
	return d
}

// persistJob carries one finalized epoch to the persister. A job with a
// non-nil ack and no records is a barrier: the persister closes ack once
// every earlier job has been resolved (tests and Finish use it to drain).
type persistJob struct {
	epoch uint32
	recs  []epochstore.Record
	size  int64 // bytes of the copies in recs
	ack   chan struct{}
}

// persister is the async persistence pipeline: one goroutine draining a
// queue into the epoch store with retries. The queue is bounded by the
// bytes of the epoch copies it holds, the memory a store stall can pin,
// not by a count of epochs, whose size varies with the workload.
type persister struct {
	store  *epochstore.Store
	retry  backoff.Policy
	ledger *durableLedger
	limit  int64

	mu     sync.Mutex
	cond   *sync.Cond   // signalled when jobs grows or closed is set
	jobs   []persistJob // FIFO; guarded by mu
	queued int64        // size of the copies not yet resolved; guarded by mu
	closed bool         // guarded by mu

	done    chan struct{}
	stopped bool // guarded by the engine's single-goroutine discipline
}

// defaultStoreQueueBytes is the persist queue's default bound, in bytes
// of queued epoch copies.
const defaultStoreQueueBytes = 16 << 20

func newPersister(store *epochstore.Store, limit int64, retry backoff.Policy, ledger *durableLedger) *persister {
	if limit <= 0 {
		limit = defaultStoreQueueBytes
	}
	p := &persister{
		store:  store,
		retry:  retry,
		ledger: ledger,
		limit:  limit,
		done:   make(chan struct{}),
	}
	p.cond = sync.NewCond(&p.mu)
	go p.run()
	return p
}

func (p *persister) run() {
	defer close(p.done)
	for {
		p.mu.Lock()
		for len(p.jobs) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.jobs) == 0 {
			p.mu.Unlock()
			return // closed and drained
		}
		job := p.jobs[0]
		p.jobs[0] = persistJob{}
		p.jobs = p.jobs[1:]
		p.mu.Unlock()

		if job.recs == nil {
			if job.ack != nil {
				close(job.ack)
			}
			continue
		}
		err := p.retry.Retry(func() error { return p.store.AppendEpoch(job.recs) })
		if err != nil {
			p.ledger.markFailed(job.epoch, fmt.Sprintf("epoch %d: %v", job.epoch, err), false)
		} else {
			p.ledger.markPersisted(job.epoch)
		}
		p.mu.Lock()
		p.queued -= job.size
		p.mu.Unlock()
	}
}

// enqueue hands an epoch to the persister without ever blocking: an epoch
// whose copies would take the queue past its bound is marked unpersisted
// instead. An empty queue takes any epoch, so one larger than the bound
// is still written.
func (p *persister) enqueue(epoch uint32, recs []epochstore.Record, size int64) {
	if p.stopped {
		p.ledger.markFailed(epoch, fmt.Sprintf("epoch %d: persister stopped", epoch), false)
		return
	}
	p.mu.Lock()
	full := p.queued > 0 && p.queued+size > p.limit
	if !full {
		p.jobs = append(p.jobs, persistJob{epoch: epoch, recs: recs, size: size})
		p.queued += size
	}
	p.mu.Unlock()
	if full {
		p.ledger.markFailed(epoch, fmt.Sprintf("epoch %d: persist queue full", epoch), true)
		return
	}
	p.cond.Signal()
}

// barrier blocks until every job enqueued before it has been resolved.
// The bound does not apply to it: it is a drain, not a data path.
func (p *persister) barrier() {
	if p.stopped {
		return
	}
	ack := make(chan struct{})
	p.mu.Lock()
	p.jobs = append(p.jobs, persistJob{ack: ack})
	p.mu.Unlock()
	p.cond.Signal()
	<-ack
}

// stop drains the queue and stops the goroutine. Idempotent.
func (p *persister) stop() {
	if p.stopped {
		return
	}
	p.stopped = true
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Signal()
	<-p.done
}

// persistEpoch hands the closed epoch's read-out (HAVING applied —
// exactly what emitEpoch delivers) to the persister. The persister gets
// its own flat copy, one key and one aggregate arena per query, taken
// before the result handler is given the rows it may overwrite. Never
// blocks.
func (e *Engine) persistEpoch(closed Degradation, read []readOut) {
	if e.persist == nil {
		return
	}
	epoch := closed.Epoch
	recs := make([]epochstore.Record, len(e.queries))
	var size int64
	for i, q := range e.queries {
		if err := read[i].err; err != nil {
			e.persist.ledger.markFailed(epoch, fmt.Sprintf("epoch %d: capture %v: %v", epoch, q, err), false)
			return
		}
		rows, n := copyStoreRows(read[i].rows)
		recs[i] = epochstore.Record{
			Epoch: epoch, Rel: q,
			Offered: closed.Offered, Processed: closed.Processed,
			Dropped: closed.Dropped, Late: closed.Late,
			Rows: rows,
		}
		size += n
	}
	e.persist.enqueue(epoch, recs, size)
}

// copyStoreRows copies rows into store rows backed by two flat arenas and
// returns them with their size in bytes.
func copyStoreRows(rows []hfta.Row) ([]epochstore.Row, int64) {
	nk, na := 0, 0
	for i := range rows {
		nk += len(rows[i].Key)
		na += len(rows[i].Aggs)
	}
	keys := make([]uint32, nk)
	aggs := make([]int64, na)
	out := make([]epochstore.Row, len(rows))
	size := int64(4*nk + 8*na + len(out)*int(unsafe.Sizeof(epochstore.Row{})))
	nk, na = 0, 0
	for i, r := range rows {
		k, g := nk+copy(keys[nk:], r.Key), na+copy(aggs[na:], r.Aggs)
		out[i] = epochstore.Row{Key: keys[nk:k:k], Aggs: aggs[na:g:g]}
		nk, na = k, g
	}
	return out, size
}

// SyncStore blocks until every epoch handed to the persister so far has
// been resolved (persisted or recorded as failed). It does not stop the
// persister. No-op without a store.
func (e *Engine) SyncStore() {
	if e.persist != nil {
		e.persist.barrier()
	}
}

// Durability returns the durable-store accounting. Without a store it
// reports Enabled=false (and whatever ledger state a v3 checkpoint
// restored).
func (e *Engine) Durability() Durability {
	return e.durable.snapshot(e.persist != nil)
}

// ReplayStore merges the attached store's persisted epochs back into the
// HFTA — the second half of a crash recovery: Restore rewinds the engine
// to the last checkpoint, ReplayStore re-hydrates every epoch the store
// kept, and the two together resume exactly (persisted epochs answer
// byte-identically to the original run). Records for (epoch, relation)
// pairs the engine already holds (checkpoint-retained rows) are skipped,
// so calling it after any Restore is safe. It also reconciles the
// durability ledger against the store's actual contents, which are
// authoritative over the checkpoint's footer.
func (e *Engine) ReplayStore() error {
	if e.persist == nil {
		return fmt.Errorf("core: no epoch store attached (Options.Store)")
	}
	st := e.persist.store
	err := st.Scan(func(rec *epochstore.Record) error {
		if _, known := e.specByRel[rec.Rel]; !known {
			return fmt.Errorf("core: store holds epoch %d of %v, not a workload query", rec.Epoch, rec.Rel)
		}
		if e.agg.GroupCount(rec.Rel, rec.Epoch) > 0 {
			return nil // already present (retained rows from the checkpoint)
		}
		for i := range rec.Rows {
			e.agg.Consume(lfta.Eviction{
				Rel: rec.Rel, Key: rec.Rows[i].Key, Aggs: rec.Rows[i].Aggs, Epoch: rec.Epoch,
			})
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.reconcileStore()
	return nil
}

// reconcileStore rebuilds the durability ledger from the store's actual
// contents: a closed epoch counts as persisted iff every query relation's
// record is present.
func (e *Engine) reconcileStore() {
	st := e.persist.store
	l := e.persist.ledger
	l.mu.Lock()
	defer l.mu.Unlock()
	l.persisted = 0
	l.unpersisted = make(map[uint32]string)
	for _, d := range e.degHist {
		complete := true
		for _, q := range e.queries {
			if !st.Has(d.Epoch, q) {
				complete = false
				break
			}
		}
		if complete {
			l.persisted++
		} else {
			l.unpersisted[d.Epoch] = "missing from store after recovery"
		}
	}
}
