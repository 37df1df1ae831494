package core

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/funcds"
	"github.com/mod-ds/mod/internal/pmem"
)

// Group commit (DESIGN.md §7). A Batch coalesces many shadow updates —
// across datastructures, across roots, and (through the background
// committer) across goroutines — into a single flush+sfence epoch. Every
// operation in the batch builds its shadow with unordered overlapped
// flushes; one shared fence then makes the whole epoch durable and the
// new versions are published together, so the per-FASE ordering point of
// the Basic interface is amortized over the batch:
//
//	fences/op = 1/B         (batch touches one root)
//	fences/op = 2/B         (batch touches many roots)
//
// against 1 fence per operation unbatched.
//
// Batched operations are applied at commit time against the then-current
// committed versions, under the root commit mutexes, so batches from
// concurrent goroutines interleave linearizably with each other and with
// Basic-interface updates. Operations do not return values; use the
// Basic interface when an update's result is needed immediately.
//
// # Crash atomicity
//
// A batch is all-or-nothing. When one root changed, publication is the
// usual 8-byte atomic pointer swap. When several changed, the store
// writes a persistent undo/redo batch record — the (cell, old version,
// new version) triples, the batch's sequence number and a checksum —
// and makes it durable with the shadows (fence A). It then writes the
// record's status word (the sequence number) and every root swap
// together, and fence B is the commit point. Recovery redoes the new
// versions when the durable status matches the record's sequence
// number and undoes to the old ones otherwise, so a crash anywhere
// inside publication recovers either every root swap or none of them.
//
// # Async durability
//
// Commit applies and publishes the batch synchronously. CommitAsync
// hands it to the store's background committer (StartGroupCommitter),
// which coalesces submissions from any number of goroutines into shared
// fence epochs and returns a Ticket; Ticket.Wait blocks until the
// batch's publication is fence-covered, i.e. fully durable. A multi-root
// group is durable when its fence B returns. A single-root group's swap
// becomes durable under the next group's fence; when the queue drains,
// the committer waits a short window for more work (lingerWindow) and
// then issues one settling fence.

// batchLogRoot names the root slot anchoring the persistent batch
// record used for multi-root publication.
const batchLogRoot = "__mod_batchlog"

// Batch record layout (payload offsets):
//
//	+0   status   sequence number of the last batch whose commit point
//	              was written (0 before the first)
//	+8   format   batchRecFormat (the earlier redo-only layout kept a
//	              count of at most MaxBatchRoots here)
//	+16  seq      the body's own batch sequence number
//	+24  count    number of entries
//	+32  checksum fnv1a over seq, count and the entries; 0 = retired
//	+40  entries: count × {root cell addr, old version, new version}
//
// The body is durable (fence A) before the status word can name its
// sequence number (fence B), so a body whose checksum validates and
// whose seq equals the durable status belongs to a batch that reached
// its commit point; any other valid body belongs to one that did not.
const (
	batchRecFormatOff = 8
	batchRecSeqOff    = 16
	batchRecCountOff  = 24
	batchRecSumOff    = 32
	batchRecHdrSize   = 40
	batchRecEntrySize = 24
	batchRecFormat    = 0x4d4f442d756e646f // "MOD-undo"
)

// MaxBatchRoots is the most distinct roots one batch commit can change,
// bounded by the capacity of the persistent batch record.
const MaxBatchRoots = 62

const batchRecSize = batchRecHdrSize + MaxBatchRoots*batchRecEntrySize

// batchChecksum hashes a record body (sequence number, count, then the
// entry words) so recovery can reject a torn or retired record.
func batchChecksum(words []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range words {
		for i := 0; i < 8; i++ {
			h ^= (w >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	if h == 0 {
		h = 1
	}
	return h
}

// batchRecEntry is one root's change in the batch record.
type batchRecEntry struct {
	cell, old, new pmem.Addr
}

// readBatchRecord decodes the record body. ok is false for a body that
// fails its checksum: retired (batchChecksum is never 0), torn, or never
// completed before a crash.
func readBatchRecord(dev pmem.Backend, rec pmem.Addr) (seq uint64, entries []batchRecEntry, ok bool) {
	sum := dev.ReadU64(rec + batchRecSumOff)
	seq = dev.ReadU64(rec + batchRecSeqOff)
	count := dev.ReadU64(rec + batchRecCountOff)
	if count < 1 || count > MaxBatchRoots {
		return 0, nil, false
	}
	words := make([]uint64, 0, 2+3*count)
	words = append(words, seq, count)
	entries = make([]batchRecEntry, count)
	for i := range entries {
		e := rec + batchRecHdrSize + pmem.Addr(i*batchRecEntrySize)
		entries[i] = batchRecEntry{cell: dev.ReadAddr(e), old: dev.ReadAddr(e + 8), new: dev.ReadAddr(e + 16)}
		words = append(words, uint64(entries[i].cell), uint64(entries[i].old), uint64(entries[i].new))
	}
	if batchChecksum(words) != sum {
		return 0, nil, false
	}
	return seq, entries, true
}

// recoverBatchRecord finishes a multi-root publication a crash
// interrupted, before the reachability scan so recovery traces the
// final roots. A valid body whose sequence number is the durable status
// reached its commit point: redo its new versions. Any other valid body
// did not: undo to its old versions. Both are idempotent 8-byte writes,
// made durable before the record retires.
func recoverBatchRecord(dev pmem.Backend, rec pmem.Addr) {
	if dev.ReadU64(rec+batchRecSumOff) == 0 {
		return // retired: nothing in flight
	}
	if seq, entries, ok := readBatchRecord(dev, rec); ok {
		redone := dev.ReadU64(rec) == seq
		for _, e := range entries {
			v := e.old
			if redone {
				v = e.new
			}
			dev.WriteAddr(e.cell, v)
			dev.Clwb(e.cell)
		}
		dev.Sfence() // restored cells durable before the record retires
	}
	dev.WriteU64(rec+batchRecSumOff, 0)
	dev.Clwb(rec + batchRecSumOff)
	dev.Sfence()
}

// batchOp is one deferred update: applied at commit time against the
// root's then-current version inside the batch's shared edit context,
// returning the new version's address. Operations after the first on a
// root mutate the edit-owned shadow in place, so apply commonly returns
// cur itself.
type batchOp struct {
	ds    Datastructure
	apply func(s *Store, ed *alloc.Edit, cur pmem.Addr) pmem.Addr
}

// Batch accumulates updates for one group commit. A Batch is not safe
// for concurrent use; goroutines build their own batches and the commit
// layer interleaves them. Commit (or CommitAsync) consumes the batch,
// leaving it empty for reuse.
type Batch struct {
	st  *Store
	ops []batchOp
}

// NewBatch returns an empty batch bound to this store handle.
func (s *Store) NewBatch() *Batch { return &Batch{st: s} }

// Len returns the number of operations accumulated.
func (b *Batch) Len() int { return len(b.ops) }

func (b *Batch) addOp(op batchOp) {
	if op.ds.location().parent != nil {
		panic(fmt.Sprintf("core: batched update of parent-bound %q (batches require root-bound datastructures; use CommitSiblings)", op.ds.Name()))
	}
	b.ops = append(b.ops, op)
}

// The op builders below are shared with ShardedBatch (sharded.go),
// which routes the same deferred updates across shard stores.

func mapSetOp(m *Map, key, val []byte) batchOp {
	k, v := slices.Clone(key), slices.Clone(val)
	return batchOp{ds: m, apply: func(s *Store, ed *alloc.Edit, cur pmem.Addr) pmem.Addr {
		next, _ := funcds.MapAt(s.heap, cur).WithEdit(ed).Set(k, v)
		return next.Addr()
	}}
}

func mapDeleteOp(m *Map, key []byte) batchOp {
	k := slices.Clone(key)
	return batchOp{ds: m, apply: func(s *Store, ed *alloc.Edit, cur pmem.Addr) pmem.Addr {
		next, _ := funcds.MapAt(s.heap, cur).WithEdit(ed).Delete(k)
		return next.Addr()
	}}
}

func setInsertOp(st *Set, key []byte) batchOp {
	k := slices.Clone(key)
	return batchOp{ds: st, apply: func(s *Store, ed *alloc.Edit, cur pmem.Addr) pmem.Addr {
		next, _ := funcds.SetDSAt(s.heap, cur).WithEdit(ed).Insert(k)
		return next.Addr()
	}}
}

func setDeleteOp(st *Set, key []byte) batchOp {
	k := slices.Clone(key)
	return batchOp{ds: st, apply: func(s *Store, ed *alloc.Edit, cur pmem.Addr) pmem.Addr {
		next, _ := funcds.SetDSAt(s.heap, cur).WithEdit(ed).Delete(k)
		return next.Addr()
	}}
}

func vectorPushOp(v *Vector, val uint64) batchOp {
	return batchOp{ds: v, apply: func(s *Store, ed *alloc.Edit, cur pmem.Addr) pmem.Addr {
		return funcds.VectorAt(s.heap, cur).WithEdit(ed).Push(val).Addr()
	}}
}

func vectorUpdateOp(v *Vector, i uint64, val uint64) batchOp {
	return batchOp{ds: v, apply: func(s *Store, ed *alloc.Edit, cur pmem.Addr) pmem.Addr {
		return funcds.VectorAt(s.heap, cur).WithEdit(ed).Update(i, val).Addr()
	}}
}

func stackPushOp(st *Stack, val uint64) batchOp {
	return batchOp{ds: st, apply: func(s *Store, ed *alloc.Edit, cur pmem.Addr) pmem.Addr {
		return funcds.StackAt(s.heap, cur).WithEdit(ed).Push(val).Addr()
	}}
}

func stackPopOp(st *Stack) batchOp {
	return batchOp{ds: st, apply: func(s *Store, ed *alloc.Edit, cur pmem.Addr) pmem.Addr {
		next, _, _ := funcds.StackAt(s.heap, cur).WithEdit(ed).Pop()
		return next.Addr()
	}}
}

func queueEnqueueOp(q *Queue, val uint64) batchOp {
	return batchOp{ds: q, apply: func(s *Store, ed *alloc.Edit, cur pmem.Addr) pmem.Addr {
		return funcds.QueueAt(s.heap, cur).WithEdit(ed).Push(val).Addr()
	}}
}

func queueDequeueOp(q *Queue) batchOp {
	return batchOp{ds: q, apply: func(s *Store, ed *alloc.Edit, cur pmem.Addr) pmem.Addr {
		next, _, _ := funcds.QueueAt(s.heap, cur).WithEdit(ed).Pop()
		return next.Addr()
	}}
}

// MapSet queues binding key to val in m. Key and value are copied, so
// the caller may reuse its buffers immediately.
func (b *Batch) MapSet(m *Map, key, val []byte) { b.addOp(mapSetOp(m, key, val)) }

// MapDelete queues removing key from m.
func (b *Batch) MapDelete(m *Map, key []byte) { b.addOp(mapDeleteOp(m, key)) }

// SetInsert queues adding key to st.
func (b *Batch) SetInsert(st *Set, key []byte) { b.addOp(setInsertOp(st, key)) }

// SetDelete queues removing key from st.
func (b *Batch) SetDelete(st *Set, key []byte) { b.addOp(setDeleteOp(st, key)) }

// VectorPush queues appending val to v.
func (b *Batch) VectorPush(v *Vector, val uint64) { b.addOp(vectorPushOp(v, val)) }

// VectorUpdate queues replacing element i of v with val.
func (b *Batch) VectorUpdate(v *Vector, i uint64, val uint64) { b.addOp(vectorUpdateOp(v, i, val)) }

// StackPush queues pushing val onto st.
func (b *Batch) StackPush(st *Stack, val uint64) { b.addOp(stackPushOp(st, val)) }

// StackPop queues removing the top element of st (no-op on empty).
func (b *Batch) StackPop(st *Stack) { b.addOp(stackPopOp(st)) }

// QueueEnqueue queues appending val at the tail of q.
func (b *Batch) QueueEnqueue(q *Queue, val uint64) { b.addOp(queueEnqueueOp(q, val)) }

// QueueDequeue queues removing the head element of q (no-op on empty).
func (b *Batch) QueueDequeue(q *Queue) { b.addOp(queueDequeueOp(q)) }

// Commit applies every queued operation and publishes the results under
// one shared fence epoch, leaving the batch empty. Like a Basic-interface
// FASE, the final root-pointer swap's durability rides on the next fence
// (Sync forces it); the batch is nonetheless crash-atomic — recovery sees
// all of it or none of it.
func (b *Batch) Commit() {
	ops := b.ops
	b.ops = nil
	b.st.commitBatch(ops)
}

// CommitAsync submits the batch to the store's background committer and
// returns a ticket that resolves when the batch is durable. Without a
// running committer it degrades to a synchronous Commit plus one fence.
// On a closed store the batch is dropped and the ticket resolves
// immediately with ErrStoreClosed.
func (b *Batch) CommitAsync() *Ticket {
	ops := b.ops
	b.ops = nil
	return b.st.commitAsyncOps(ops)
}

// commitAsyncOps routes deferred ops through the background committer
// (shared with ShardedBatch.CommitAsync for single-shard submissions).
func (s *Store) commitAsyncOps(ops []batchOp) *Ticket {
	t := &Ticket{done: make(chan struct{})}
	c := &s.sh.com
	c.mu.Lock()
	if s.sh.closed.Load() {
		// Rejecting under c.mu orders the check against Close: a Close
		// that won the flag has not yet drained, so anything enqueued
		// before the flag was set is still serviced, and anything after
		// is refused here rather than stranded on a dead queue.
		c.mu.Unlock()
		return failedTicket(ErrStoreClosed)
	}
	if !c.running || c.quit {
		// Not running, or a Stop is draining the queue: committing here
		// keeps the batch from landing on a queue no worker will service.
		c.mu.Unlock()
		if !s.commitBatch(ops) {
			s.heap.Fence()
		}
		close(t.done)
		return t
	}
	c.queue = append(c.queue, submission{ops: ops, ticket: t})
	c.cond.Signal()
	c.mu.Unlock()
	return t
}

// rootChange records one root's pending publication: the committed
// version a batch applied against and the final shadow to install.
type rootChange struct {
	slot       int
	old, final pmem.Addr
}

// preparedBatch is an applied-but-unpublished batch on one store: root
// commit mutexes held, shadow chains built and sealed, publication
// pending. The single-store commit path publishes locally
// (publishLocal); the cross-shard path (sharded.go) publishes several
// prepared batches through one shard manifest. Either way the caller
// must call finish afterwards to retire superseded versions, adopt the
// new ones, and release the locks.
type preparedBatch struct {
	s        *Store
	ops      []batchOp
	locked   []int
	changed  []rootChange
	finals   map[int]pmem.Addr
	releases []pmem.Addr // intermediate shadows: never published, retired eagerly
}

// prepareBatch locks every root the ops touch (ascending slot order, so
// overlapping batches cannot deadlock), applies each op against the
// root's then-current committed version inside one shared edit context,
// and seals the edit so every dirtied line is inflight, ready for the
// publication fence. The first operation on a root copies its path;
// subsequent operations mutate the edit-owned shadow in place, so an
// N-op batch copies each path node at most once.
func (s *Store) prepareBatch(ops []batchOp) *preparedBatch {
	// Group ops by root slot, preserving submission order within a root.
	perSlot := make(map[int][]batchOp)
	var slots []int
	for _, op := range ops {
		slot := op.ds.location().slot
		if _, ok := perSlot[slot]; !ok {
			slots = append(slots, slot)
		}
		perSlot[slot] = append(perSlot[slot], op)
	}
	if len(slots) > MaxBatchRoots {
		panic(fmt.Sprintf("core: batch touches %d roots (max %d)", len(slots), MaxBatchRoots))
	}
	locked := slices.Clone(slots)
	sort.Ints(locked)
	for _, slot := range locked {
		s.sh.rootMu[slot].Lock()
	}

	s.BeginFASE()
	ed := s.heap.BeginEdit()
	p := &preparedBatch{s: s, ops: ops, locked: locked, finals: make(map[int]pmem.Addr, len(slots))}
	for _, slot := range slots {
		old := s.heap.Root(slot)
		cur := old
		for _, op := range perSlot[slot] {
			next := op.apply(s, ed, cur)
			if next == cur {
				continue // no-op or in-place update on the owned shadow
			}
			if cur != old {
				p.releases = append(p.releases, cur) // intermediate shadow
			}
			cur = next
		}
		p.finals[slot] = cur
		if cur != old {
			p.changed = append(p.changed, rootChange{slot: slot, old: old, final: cur})
		}
	}
	ed.Seal() // coalesced flush sweep, ahead of the publish fence
	return p
}

// publishLocal installs the prepared batch's root changes on its own
// store: one root changed needs only the atomic pointer swap after the
// shared fence; several changed go through the persistent batch record
// so recovery lands on all swaps or none. It reports whether the
// publication is already durable: true after the multi-root fence B,
// false when the swap rides the next fence (or nothing changed).
func (p *preparedBatch) publishLocal() (durable bool) {
	s := p.s
	switch {
	case len(p.changed) == 0:
		// Nothing to publish or order.
		return false
	case len(p.changed) == 1:
		c := p.changed[0]
		crown := s.maybeCheckpoint(c.final)
		s.commitBegin()
		s.heap.Fence() // the batch's single ordering point
		s.clearCrown(crown)
		s.heap.SetRoot(c.slot, c.final)
		s.commitEnd()
		return false
	}
	var crown []pmem.Addr
	for _, c := range p.changed {
		crown = append(crown, s.maybeCheckpoint(c.final)...)
	}
	s.sh.txMu.Lock()
	defer s.sh.txMu.Unlock()
	s.commitBegin()
	s.sh.batchSeq++ // serialized by txMu; above every sequence number on the medium
	seq := s.sh.batchSeq
	rec := s.batchRec
	words := make([]uint64, 0, 2+3*len(p.changed))
	words = append(words, seq, uint64(len(p.changed)))
	for i, c := range p.changed {
		cell := s.heap.RootCellAddr(c.slot)
		e := rec + batchRecHdrSize + pmem.Addr(i*batchRecEntrySize)
		s.dev.WriteU64(e, uint64(cell))
		s.dev.WriteU64(e+8, uint64(c.old))
		s.dev.WriteU64(e+16, uint64(c.final))
		words = append(words, uint64(cell), uint64(c.old), uint64(c.final))
	}
	s.dev.WriteU64(rec+batchRecSeqOff, seq)
	s.dev.WriteU64(rec+batchRecCountOff, uint64(len(p.changed)))
	s.dev.WriteU64(rec+batchRecSumOff, batchChecksum(words))
	s.dev.FlushRange(rec+batchRecSeqOff, batchRecHdrSize-batchRecSeqOff+len(p.changed)*batchRecEntrySize)
	// Fence A: shadows, record body, and the previous batch's record
	// retirement are durable. The status word still names an earlier
	// batch, so a crash from here to fence B undoes whichever swaps
	// reached the medium.
	s.heap.Fence()
	// Checkpoint crowns clear (and fence) between A and B: the crown
	// payloads are durable after fence A, and the clears are durable
	// before the commit point, so a redone swap can never point at a
	// structure whose navigation recovery would zero.
	s.clearCrown(crown)
	s.dev.WriteU64(rec, seq)
	s.dev.Clwb(rec)
	for _, c := range p.changed {
		s.heap.SetRoot(c.slot, c.final)
	}
	s.dev.Sfence() // fence B: the commit point; every swap is durable
	s.dev.WriteU64(rec+batchRecSumOff, 0)
	s.dev.Clwb(rec + batchRecSumOff) // retirement rides the next fence
	s.commitEnd()
	return true
}

// finish retires every superseded version in one batch, adopts the new
// versions into the handles, closes the FASE, and releases the root
// locks. Must run after publication. Replaced root versions release
// deferred (an optimistic builder may still be retaining out of them);
// intermediate shadows were never published and retire eagerly.
func (p *preparedBatch) finish() {
	s := p.s
	s.heap.ReleaseBatch(p.releases)
	for _, c := range p.changed {
		s.heap.ReleaseDeferred(c.old)
	}
	for _, op := range p.ops {
		op.ds.adopt(p.finals[op.ds.location().slot])
	}
	s.EndFASE()
	s.dev.NoteBatch(len(p.ops))
	for i := len(p.locked) - 1; i >= 0; i-- {
		s.sh.rootMu[p.locked[i]].Unlock()
	}
}

// commitBatch is the group-commit step: apply every op against the
// current committed versions under the root locks, fence once for the
// whole epoch, publish all changed roots, and retire every superseded
// version in one batch. It reports whether the publication is already
// durable (see publishLocal).
func (s *Store) commitBatch(ops []batchOp) (durable bool) {
	if len(ops) == 0 {
		return false
	}
	p := s.prepareBatch(ops)
	durable = p.publishLocal()
	p.finish()
	return durable
}

// Ticket tracks an asynchronously submitted batch. Wait returns once the
// batch is published and its publication fence-covered (durable), or the
// submission was rejected — Err distinguishes the two.
type Ticket struct {
	done chan struct{}
	err  error
}

// failedTicket returns an already-resolved ticket carrying err, for
// submissions rejected outright (e.g. ErrStoreClosed).
func failedTicket(err error) *Ticket {
	t := &Ticket{done: make(chan struct{}), err: err}
	close(t.done)
	return t
}

// FailedTicket returns an already-resolved ticket carrying err. Serving
// layers use it from KV fakes to inject commit failures into their
// retry paths without reaching into the store.
func FailedTicket(err error) *Ticket { return failedTicket(err) }

// Wait blocks until the batch is durable or rejected.
func (t *Ticket) Wait() { <-t.done }

// Err returns nil once Wait has returned and the batch is durable, or
// the rejection reason (ErrStoreClosed) if the submission was refused.
// Only valid after Wait (or a true Done).
func (t *Ticket) Err() error { return t.err }

// Done reports without blocking whether the batch is durable.
func (t *Ticket) Done() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// submission is one queued batch awaiting the background committer.
type submission struct {
	ops    []batchOp
	ticket *Ticket
}

// committer is the background group-commit pipeline shared by all
// handles of a store.
type committer struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []submission
	running bool
	quit    bool
	maxOps  int
	linger  atomic.Int64 // floor of the collection window, ns; 0 disables lingering
	wg      sync.WaitGroup
}

// lingerWait polls the queue for up to d, yielding between polls
// (time.Sleep rounds tens-of-µs windows up to the timer tick, which
// would put milliseconds on the settle path). Returns true as soon as
// there is work to fold into the next group.
func (c *committer) lingerWait(d time.Duration) bool {
	deadline := time.Now().Add(d)
	for {
		runtime.Gosched()
		c.mu.Lock()
		busy := len(c.queue) > 0 || c.quit
		c.mu.Unlock()
		if busy {
			return true
		}
		if !time.Now().Before(deadline) {
			return false
		}
	}
}

// Collection-window tuning (lingerWindow).
const (
	// lingerFenceMult is k: the window spans k settle fences, so waiting
	// for company costs at most about k times the fence it may save.
	lingerFenceMult = 2
	// lingerAlpha weights the newest sample in both moving averages. A
	// slow average follows the long-run hit rate, so a short run of
	// misses does not stop two producers from sharing fences, while a
	// lone producer still crosses ½ after about ten misses.
	lingerAlpha = 1.0 / 16
	// lingerProbeEvery: while lingering mostly misses, every this-many-th
	// settle still lingers, so the loop notices when company returns.
	lingerProbeEvery = 8
)

// lingerWindow sizes the committer's collection window from what its
// loop observes. The window is the larger of the configured floor and
// lingerFenceMult × the moving average of the settle fence's wall time:
// a few µs at most in the simulator, hundreds of µs under msync, so one
// constant suits neither. Lingering only pays when submissions do
// arrive inside the window, so the loop lingers only while the moving
// average of its linger misses is at most ½; otherwise it settles at
// once and lingers on every lingerProbeEvery-th settle to re-measure. A
// lone producer, which submits nothing while it waits for its own
// ticket, thus stops paying the wait. The zero value starts out
// lingering; it is owned by the committer goroutine.
type lingerWindow struct {
	fenceNs float64 // moving average of settle-fence wall time
	missEW  float64 // moving average of linger misses (1 = nothing arrived)
	skipped int     // settles without lingering since the last probe
}

// next returns how long to linger before the settle fence given the
// configured floor; 0 means settle at once.
func (w *lingerWindow) next(floor time.Duration) time.Duration {
	if floor <= 0 {
		return 0
	}
	if w.missEW > 0.5 {
		w.skipped++
		if w.skipped < lingerProbeEvery {
			return 0
		}
	}
	w.skipped = 0
	return max(floor, time.Duration(lingerFenceMult*w.fenceNs))
}

// lingered records whether work arrived inside a window.
func (w *lingerWindow) lingered(hit bool) {
	miss := 1.0
	if hit {
		miss = 0
	}
	w.missEW += lingerAlpha * (miss - w.missEW)
}

// settled records one settle fence's wall time.
func (w *lingerWindow) settled(d time.Duration) {
	w.fenceNs += lingerAlpha * (float64(d) - w.fenceNs)
}

// SetCommitterLinger sets the floor of the background committer's
// collection window: when its queue drains with tickets still awaiting
// a fence, it waits for new submissions before paying the settling
// fence. The window is the larger of d and twice the committer's
// measured settle-fence time, and the committer stops lingering while
// few windows catch a submission (a lone producer never does). Zero (the
// default) disables lingering and settles immediately — lowest latency,
// but under network-paced open-loop load arrivals rarely overlap, so
// every batch gets a private fence epoch. A floor of a few tens of
// microseconds lets concurrent clients' submissions pile into shared
// epochs, which is what makes fences/op fall as client concurrency
// rises. Takes effect immediately, even on a running committer.
func (s *Store) SetCommitterLinger(d time.Duration) {
	s.sh.com.linger.Store(int64(d))
}

// DefaultCommitterMaxOps caps how many operations the background
// committer coalesces into one fence epoch.
const DefaultCommitterMaxOps = 256

// StartGroupCommitter launches the store's background committer, which
// coalesces CommitAsync submissions from any number of goroutines into
// shared fence epochs. maxOps caps the operations per epoch (0 uses
// DefaultCommitterMaxOps). Starting an already-running committer is a
// no-op.
func (s *Store) StartGroupCommitter(maxOps int) {
	if maxOps <= 0 {
		maxOps = DefaultCommitterMaxOps
	}
	c := &s.sh.com
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cond == nil {
		c.cond = sync.NewCond(&c.mu)
	}
	if c.running {
		return
	}
	c.running = true
	c.quit = false
	c.maxOps = maxOps
	c.wg.Add(1)
	worker := s.Fork() // its own clock: committer time is its own critical path
	go worker.committerLoop()
}

// StopGroupCommitter drains the queue, makes every submitted batch
// durable, and stops the background committer. Safe to call when not
// running.
func (s *Store) StopGroupCommitter() {
	c := &s.sh.com
	c.mu.Lock()
	if !c.running {
		c.mu.Unlock()
		return
	}
	c.quit = true
	c.cond.Broadcast()
	c.mu.Unlock()
	c.wg.Wait()
	c.mu.Lock()
	c.running = false
	c.mu.Unlock()
}

// asyncBarrier submits an empty batch and returns its ticket, or nil if
// the committer is not running. Waiting on the ticket guarantees every
// batch submitted before it is durable.
func (s *Store) asyncBarrier() *Ticket {
	c := &s.sh.com
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.running || c.quit {
		return nil
	}
	t := &Ticket{done: make(chan struct{})}
	c.queue = append(c.queue, submission{ticket: t})
	c.cond.Signal()
	return t
}

// committerLoop coalesces queued submissions into group commits. A
// multi-root group is durable when its commit returns, and its tickets
// close at once. A single-root group's swap becomes durable under the
// next group's fence, so its tickets close one group late while the
// pipeline is busy; when the queue drains, the loop lingers for the
// window lingerWindow sizes and then one settle fence closes the
// stragglers.
func (s *Store) committerLoop() {
	c := &s.sh.com
	defer c.wg.Done()
	var (
		pending []*Ticket // published, awaiting a covering fence
		win     lingerWindow
	)
	resolve := func() {
		for _, t := range pending {
			close(t.done)
		}
		pending = pending[:0]
	}
	settle := func() {
		if len(pending) == 0 {
			return
		}
		start := time.Now()
		s.heap.Fence()
		win.settled(time.Since(start))
		resolve()
	}
	for {
		c.mu.Lock()
		for len(c.queue) == 0 && !c.quit {
			if len(pending) > 0 {
				// Settle stragglers before sleeping so an idle pipeline
				// never strands a ticket — but first give imminent
				// submissions a window to ride the next group's fence
				// instead of forcing a dedicated settle fence.
				c.mu.Unlock()
				if d := win.next(time.Duration(c.linger.Load())); d > 0 {
					hit := c.lingerWait(d)
					win.lingered(hit)
					if hit {
						c.mu.Lock()
						continue
					}
				}
				settle()
				c.mu.Lock()
				continue
			}
			c.cond.Wait()
		}
		if len(c.queue) == 0 && c.quit {
			c.mu.Unlock()
			settle()
			return
		}
		take, total := 0, 0
		for take < len(c.queue) {
			n := len(c.queue[take].ops)
			if take > 0 && total+n > c.maxOps {
				break
			}
			take++
			total += n
		}
		subs := slices.Clone(c.queue[:take])
		c.queue = c.queue[take:]
		c.mu.Unlock()

		var ops []batchOp
		for _, sub := range subs {
			ops = append(ops, sub.ops...)
		}
		// The group's first fence covers the previous group's root
		// swaps. A group that never fenced (a bare barrier, or all no-op
		// updates) leaves the previous tickets pending until a later
		// fence.
		f0 := s.dev.FenceSeq()
		durable := s.commitBatch(ops)
		if s.dev.FenceSeq() > f0 {
			resolve()
		}
		for _, sub := range subs {
			if durable {
				close(sub.ticket.done)
			} else {
				pending = append(pending, sub.ticket)
			}
		}
	}
}
