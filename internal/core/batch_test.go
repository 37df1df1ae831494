package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/mod-ds/mod/internal/pmem"
)

func newBatchTestStore(t *testing.T) (*pmem.Device, *Store) {
	t.Helper()
	dev := pmem.New(pmem.DefaultConfig(64 << 20))
	st, err := newStore(dev)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	return dev, st
}

func bkey(i int) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(i))
	return b
}

func TestBatchSingleRootOneFence(t *testing.T) {
	dev, st := newBatchTestStore(t)
	m, err := st.Map("m")
	if err != nil {
		t.Fatal(err)
	}
	st.Sync()

	const n = 64
	base := dev.Stats()
	b := st.NewBatch()
	for i := 0; i < n; i++ {
		b.MapSet(m, bkey(i), bkey(i*7))
	}
	if b.Len() != n {
		t.Fatalf("batch len = %d, want %d", b.Len(), n)
	}
	b.Commit()
	d := dev.Stats().Sub(base)

	if d.Fences != 1 {
		t.Errorf("single-root batch of %d ops used %d fences, want 1", n, d.Fences)
	}
	if d.Batches != 1 || d.BatchedOps != n {
		t.Errorf("batch accounting = %d batches / %d ops, want 1 / %d", d.Batches, d.BatchedOps, n)
	}
	if got := m.Len(); got != n {
		t.Fatalf("map has %d entries after batch, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		v, ok := m.Get(bkey(i))
		if !ok || binary.LittleEndian.Uint64(v) != uint64(i*7) {
			t.Fatalf("key %d lost or corrupt after batch commit", i)
		}
	}
	if b.Len() != 0 {
		t.Errorf("batch not emptied by Commit")
	}
}

func TestBatchMultiRootTwoFences(t *testing.T) {
	dev, st := newBatchTestStore(t)
	m, _ := st.Map("m")
	q, _ := st.Queue("q")
	v, _ := st.Vector("v")
	st.Sync()

	base := dev.Stats()
	b := st.NewBatch()
	for i := 0; i < 30; i++ {
		switch i % 3 {
		case 0:
			b.MapSet(m, bkey(i), bkey(i))
		case 1:
			b.QueueEnqueue(q, uint64(i))
		case 2:
			b.VectorPush(v, uint64(i))
		}
	}
	b.Commit()
	d := dev.Stats().Sub(base)

	if d.Fences != 2 {
		t.Errorf("multi-root batch used %d fences, want 2", d.Fences)
	}
	if m.Len() != 10 || q.Len() != 10 || v.Len() != 10 {
		t.Fatalf("batch results: map=%d queue=%d vector=%d, want 10 each", m.Len(), q.Len(), v.Len())
	}
}

func TestBatchNoOpAndChaining(t *testing.T) {
	dev, st := newBatchTestStore(t)
	m, _ := st.Map("m")
	m.Set(bkey(1), []byte("one"))
	st.Sync()

	// A batch of pure no-ops publishes nothing and needs no fence.
	base := dev.Stats()
	b := st.NewBatch()
	b.MapDelete(m, bkey(404))
	b.Commit()
	if d := dev.Stats().Sub(base); d.Fences != 0 {
		t.Errorf("no-op batch used %d fences, want 0", d.Fences)
	}

	// Chained updates to one key within a batch: last write wins, the
	// intermediate shadows are retired.
	b = st.NewBatch()
	b.MapSet(m, bkey(2), []byte("a"))
	b.MapSet(m, bkey(2), []byte("b"))
	b.MapDelete(m, bkey(1))
	b.Commit()
	if v, ok := m.Get(bkey(2)); !ok || string(v) != "b" {
		t.Fatalf("chained batch: key 2 = %q, %v; want \"b\"", v, ok)
	}
	if _, ok := m.Get(bkey(1)); ok {
		t.Fatalf("chained batch: key 1 still present after batched delete")
	}
}

func TestBatchParentBoundPanics(t *testing.T) {
	_, st := newBatchTestStore(t)
	p, err := st.Parent("p", "left", "right")
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Map("left")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("batched update of a parent-bound structure did not panic")
		}
	}()
	st.NewBatch().MapSet(m, bkey(1), bkey(1))
}

// TestBatchConcurrentWriters drives many goroutines committing batches —
// some to private roots, some to a shared root — interleaved with
// Basic-interface writers, and checks nothing is lost (run with -race).
func TestBatchConcurrentWriters(t *testing.T) {
	_, st := newBatchTestStore(t)
	const (
		writers  = 4
		batches  = 30
		batchLen = 8
	)
	shared, err := st.Map("shared")
	if err != nil {
		t.Fatal(err)
	}
	st.Sync()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := st.Fork()
			own, err := h.Map(fmt.Sprintf("own-%d", w))
			if err != nil {
				t.Error(err)
				return
			}
			sh, err := h.Map("shared")
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < batches; i++ {
				b := h.NewBatch()
				for j := 0; j < batchLen; j++ {
					k := i*batchLen + j
					b.MapSet(own, bkey(k), bkey(k))
					b.MapSet(sh, bkey(w*1_000_000+k), bkey(k))
				}
				b.Commit()
				// Interleave a Basic-interface FASE on the shared root.
				sh.Set(bkey(w*1_000_000+500_000+i), bkey(i))
			}
		}(w)
	}
	wg.Wait()
	st.Sync()

	wantOwn := uint64(batches * batchLen)
	for w := 0; w < writers; w++ {
		m, err := st.Map(fmt.Sprintf("own-%d", w))
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Len(); got != wantOwn {
			t.Errorf("own-%d has %d entries, want %d", w, got, wantOwn)
		}
	}
	wantShared := uint64(writers * (batches*batchLen + batches))
	if got := shared.Len(); got != wantShared {
		t.Errorf("shared map has %d entries, want %d", got, wantShared)
	}
}

// TestBatchAsyncCommitter exercises the background pipeline: concurrent
// producers submit batches, tickets resolve durable, Sync drains.
func TestBatchAsyncCommitter(t *testing.T) {
	dev, st := newBatchTestStore(t)
	cfgMaps := make([]*Map, 3)
	for i := range cfgMaps {
		m, err := st.Map(fmt.Sprintf("async-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		cfgMaps[i] = m
	}
	st.Sync()
	st.StartGroupCommitter(64)
	defer st.StopGroupCommitter()

	const producers = 3
	const perProducer = 40
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := st.Fork()
			m, err := h.Map(fmt.Sprintf("async-%d", p))
			if err != nil {
				t.Error(err)
				return
			}
			var last *Ticket
			for i := 0; i < perProducer; i++ {
				b := h.NewBatch()
				b.MapSet(m, bkey(i), bkey(i*3))
				b.MapSet(m, bkey(100_000+i), bkey(i))
				last = b.CommitAsync()
			}
			last.Wait()
			if !last.Done() {
				t.Error("ticket Wait returned but Done is false")
			}
		}(p)
	}
	wg.Wait()
	st.Sync()

	for p, m := range cfgMaps {
		if got := m.Len(); got != 2*perProducer {
			t.Errorf("async-%d has %d entries, want %d", p, got, 2*perProducer)
		}
	}
	if s := dev.Stats(); s.Batches == 0 || s.BatchedOps < producers*perProducer*2 {
		t.Errorf("committer accounting: %d batches / %d ops", s.Batches, s.BatchedOps)
	}

	// A stopped committer degrades CommitAsync to sync-with-fence.
	st.StopGroupCommitter()
	b := st.NewBatch()
	b.MapSet(cfgMaps[0], bkey(999), bkey(999))
	tk := b.CommitAsync()
	tk.Wait()
	if _, ok := cfgMaps[0].Get(bkey(999)); !ok {
		t.Error("CommitAsync without committer lost the update")
	}
}

// TestBatchCrashAllOrNothing injects power failures at every stage of a
// multi-root batch commit — while shadows build, between the record
// fences, mid root-swap — across many seeds, and checks recovery sees
// the batch atomically: the map and queue both have it, or neither does.
func TestBatchCrashAllOrNothing(t *testing.T) {
	sawCommitted, sawDropped := false, false
	for seed := uint64(1); seed <= 60; seed++ {
		committed, err := runBatchCrashRound(t, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if committed {
			sawCommitted = true
		} else {
			sawDropped = true
		}
	}
	if !sawCommitted || !sawDropped {
		t.Errorf("crash points not diverse: committed=%v dropped=%v", sawCommitted, sawDropped)
	}
}

func runBatchCrashRound(t *testing.T, seed uint64) (batchCommitted bool, err error) {
	cfg := pmem.DefaultConfig(64 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	st, err := newStore(dev)
	if err != nil {
		return false, err
	}
	m, _ := st.Map("m")
	q, _ := st.Queue("q")

	pre := int(seed % 20)
	for i := 0; i < pre; i++ {
		b := st.NewBatch()
		b.MapSet(m, bkey(i), bkey(i*3))
		b.QueueEnqueue(q, uint64(i))
		b.Commit()
	}
	st.Sync()

	// Inject the crash a pseudorandom number of PM writes into the final
	// batch (shadow building + publication together are a few hundred
	// writes; the modulus spreads crash points across all stages).
	tr := pmem.NewCrashCountdown(dev, 1+int(seed*37%240), pmem.CrashEvictRandom, seed)
	dev.SetTracer(tr)
	b := st.NewBatch()
	b.MapSet(m, bkey(7777), []byte("batched"))
	b.QueueEnqueue(q, 7777)
	b.MapSet(m, bkey(7778), []byte("batched2"))
	b.Commit()
	dev.SetTracer(nil)
	img := tr.Image()
	if img == nil {
		// Commit finished before the countdown: crash right after.
		img = dev.CrashImage(pmem.CrashEvictRandom, seed)
	}

	dev2 := pmem.NewFromImage(pmem.DefaultConfig(64<<20), img)
	db2, _, err := Open(pmem.Config{}, WithDevices(dev2), WithAttach())
	if err != nil {
		return false, fmt.Errorf("recovery: %w", err)
	}
	st2 := db2.Store()
	m2, _ := st2.Map("m")
	q2, _ := st2.Queue("q")

	_, mapHas := m2.Get(bkey(7777))
	_, mapHas2 := m2.Get(bkey(7778))
	if mapHas != mapHas2 {
		return false, fmt.Errorf("batch torn within map root: key 7777=%v 7778=%v", mapHas, mapHas2)
	}
	queueHas := int(q2.Len()) == pre+1
	if !queueHas && int(q2.Len()) != pre {
		return false, fmt.Errorf("queue has %d entries, want %d or %d", q2.Len(), pre, pre+1)
	}
	if mapHas != queueHas {
		return false, fmt.Errorf("batch torn across roots: map committed=%v queue committed=%v", mapHas, queueHas)
	}
	wantMap := uint64(pre)
	if mapHas {
		wantMap += 2
	}
	if got := m2.Len(); got != wantMap {
		return false, fmt.Errorf("map has %d entries, want %d", got, wantMap)
	}
	for i := 0; i < pre; i++ {
		v, ok := m2.Get(bkey(i))
		if !ok || binary.LittleEndian.Uint64(v) != uint64(i*3) {
			return false, fmt.Errorf("pre-batch key %d lost or corrupt", i)
		}
	}
	// The recovered store must stay fully usable, including batching.
	nb := st2.NewBatch()
	nb.MapSet(m2, bkey(424242), []byte("post"))
	nb.QueueEnqueue(q2, 424242)
	nb.Commit()
	if _, ok := m2.Get(bkey(424242)); !ok {
		return false, fmt.Errorf("store unusable after recovery")
	}
	return mapHas, nil
}

// TestBatchRecordStaleStatusRejected forges the record-reuse hazard: a
// durable status word over a retired body. Recovery must ignore the
// body, whatever the status says — even the body's own sequence number:
// its batch already completed, and redoing (or undoing) its swaps would
// roll back a later commit onto a released version.
func TestBatchRecordStaleStatusRejected(t *testing.T) {
	for _, forged := range []string{"foreign", "own"} {
		t.Run(forged, func(t *testing.T) {
			cfg := pmem.DefaultConfig(64 << 20)
			cfg.TrackDurable = true
			dev := pmem.New(cfg)
			st, err := newStore(dev)
			if err != nil {
				t.Fatal(err)
			}
			m, _ := st.Map("a")
			q, _ := st.Queue("b")
			b := st.NewBatch()
			b.MapSet(m, bkey(1), []byte("v1"))
			b.QueueEnqueue(q, 1)
			b.Commit() // multi-root: fills the record body under sequence 1
			st.Sync()
			m.Set(bkey(1), []byte("v2")) // supersedes (and releases) the batch's map version
			st.Sync()
			if sum := dev.ReadU64(st.batchRec + batchRecSumOff); sum != 0 {
				t.Fatalf("record not retired after Sync: checksum %#x", sum)
			}

			status := uint64(4242)
			if forged == "own" {
				status = dev.ReadU64(st.batchRec + batchRecSeqOff)
			}
			dev.WriteU64(st.batchRec, status)
			dev.Clwb(st.batchRec)
			dev.Sfence()

			img := dev.CrashImage(pmem.CrashFencedOnly, 1)
			db2, _, err := Open(pmem.DefaultConfig(64<<20), WithExistingImages([][]byte{img}))
			if err != nil {
				t.Fatalf("recovery after forged status: %v", err)
			}
			st2 := db2.Store()
			m2, _ := st2.Map("a")
			if v, ok := m2.Get(bkey(1)); !ok || string(v) != "v2" {
				t.Fatalf("retired batch record replayed: key 1 = %q, %v; want \"v2\"", v, ok)
			}
			q2, _ := st2.Queue("b")
			if q2.Len() != 1 {
				t.Fatalf("queue has %d entries after recovery, want 1", q2.Len())
			}
		})
	}
}

// fenceImages is a Tracer that captures a fenced-only crash image after
// every fence: the medium exactly as that fence left it.
type fenceImages struct {
	dev  *pmem.Device
	imgs [][]byte
}

func (f *fenceImages) Fence(int) { f.imgs = append(f.imgs, f.dev.CrashImage(pmem.CrashFencedOnly, 0)) }

func (*fenceImages) Alloc(pmem.Addr, uint64, uint8) {}
func (*fenceImages) Free(pmem.Addr, uint64)         {}
func (*fenceImages) Write(pmem.Addr, int)           {}
func (*fenceImages) Flush(uint64)                   {}
func (*fenceImages) FASEBegin()                     {}
func (*fenceImages) FASEEnd()                       {}
func (*fenceImages) CommitBegin()                   {}
func (*fenceImages) CommitEnd()                     {}

// twoFenceBatch commits one multi-root batch (a map overwrite, an
// enqueue and a vector push) over a prepared store and returns the
// fenced-only images after fence A and after fence B, plus the store.
func twoFenceBatch(t *testing.T) (st *Store, afterA, afterB []byte) {
	t.Helper()
	cfg := pmem.DefaultConfig(64 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	st, err := newStore(dev)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := st.Map("m")
	q, _ := st.Queue("q")
	v, _ := st.Vector("v")
	m.Set(bkey(1), []byte("old"))
	q.Enqueue(1)
	// An earlier multi-root batch leaves a retired body and a nonzero
	// status in the record.
	b := st.NewBatch()
	b.MapSet(m, bkey(2), []byte("pre"))
	b.VectorPush(v, 1)
	b.Commit()
	st.Sync()

	cap := &fenceImages{dev: dev}
	dev.SetTracer(cap)
	b = st.NewBatch()
	b.MapSet(m, bkey(1), []byte("new"))
	b.QueueEnqueue(q, 2)
	b.VectorPush(v, 2)
	b.Commit()
	dev.SetTracer(nil)
	if len(cap.imgs) != 2 {
		t.Fatalf("multi-root batch fenced %d times, want 2", len(cap.imgs))
	}
	return st, cap.imgs[0], cap.imgs[1]
}

// batchOutcome reopens img and reports whether the batch of
// twoFenceBatch is absent (false) or present (true) in every root,
// failing on any mixture.
func batchOutcome(t *testing.T, img []byte) bool {
	t.Helper()
	db, _, err := Open(pmem.DefaultConfig(64<<20), WithExistingImages([][]byte{img}))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	st := db.Store()
	m, _ := st.Map("m")
	q, _ := st.Queue("q")
	v, _ := st.Vector("v")
	val, _ := m.Get(bkey(1))
	got := [3]bool{string(val) == "new", q.Len() == 2, v.Len() == 2}
	wantOld := [3]bool{string(val) == "old", q.Len() == 1, v.Len() == 1}
	if got != [3]bool{true, true, true} && wantOld != [3]bool{true, true, true} {
		t.Fatalf("batch torn: map=%q queue=%d vector=%d", val, q.Len(), v.Len())
	}
	if pre, ok := m.Get(bkey(2)); !ok || string(pre) != "pre" {
		t.Fatalf("earlier batch lost: key 2 = %q, %v", pre, ok)
	}
	if sum := st.dev.ReadU64(st.batchRec + batchRecSumOff); sum != 0 {
		t.Fatalf("record not retired by recovery: checksum %#x", sum)
	}
	return got[0]
}

// TestBatchCrashBetweenFences crashes between fence A and fence B with
// every subset of the words written there — the status word and each
// root swap — durable, at word granularity (finer than any medium).
// Recovery must give all-old without the status and all-new with it.
func TestBatchCrashBetweenFences(t *testing.T) {
	st, afterA, afterB := twoFenceBatch(t)
	var words []int
	for off := 0; off < len(afterA); off += 8 {
		if binary.LittleEndian.Uint64(afterA[off:]) != binary.LittleEndian.Uint64(afterB[off:]) {
			words = append(words, off)
		}
	}
	status := int(st.batchRec)
	if len(words) != 4 || !slices.Contains(words, status) {
		t.Fatalf("words written between the fences at %v, want the status word %#x and 3 root cells", words, status)
	}
	for mask := 0; mask < 1<<len(words); mask++ {
		img := slices.Clone(afterA)
		withStatus := false
		for i, off := range words {
			if mask&(1<<i) != 0 {
				copy(img[off:off+8], afterB[off:off+8])
				withStatus = withStatus || off == status
			}
		}
		if got := batchOutcome(t, img); got != withStatus {
			t.Errorf("subset %04b: recovered batch=%v, want %v (status durable=%v)", mask, got, withStatus, withStatus)
		}
	}
}

// TestBatchCrashAfterCommitPoint crashes after fence B, before the
// record's retirement is durable: recovery redoes the swaps (already
// durable, so the redo is idempotent) and gives all-new.
func TestBatchCrashAfterCommitPoint(t *testing.T) {
	st, _, afterB := twoFenceBatch(t)
	if sum := binary.LittleEndian.Uint64(afterB[st.batchRec+batchRecSumOff:]); sum == 0 {
		t.Fatal("retirement durable at fence B; want it to ride the next fence")
	}
	if !batchOutcome(t, afterB) {
		t.Fatal("batch lost after its commit point")
	}
	// Retired too: the body is ignored and the swaps stand.
	st.Sync()
	if !batchOutcome(t, st.dev.(*pmem.Device).CrashImage(pmem.CrashFencedOnly, 0)) {
		t.Fatal("batch lost after retirement")
	}
}

// TestBatchSeqResumesAboveMedium: a reopened store numbers its batches
// above every sequence number on the medium. Reusing the durable
// status's number would let a body made durable early by eviction, over
// shadows that are not, pass for a committed batch.
func TestBatchSeqResumesAboveMedium(t *testing.T) {
	cfg := pmem.DefaultConfig(64 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	st, err := newStore(dev)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := st.Map("m")
	q, _ := st.Queue("q")
	for i := 0; i < 3; i++ {
		b := st.NewBatch()
		b.MapSet(m, bkey(i), bkey(i))
		b.QueueEnqueue(q, uint64(i))
		b.Commit()
	}
	st.Sync()
	status := dev.ReadU64(st.batchRec)

	dev2 := pmem.NewFromImage(cfg, dev.CrashImage(pmem.CrashFencedOnly, 0))
	db2, _, err := Open(pmem.Config{}, WithDevices(dev2), WithAttach())
	if err != nil {
		t.Fatal(err)
	}
	st2 := db2.Store()
	m2, _ := st2.Map("m")
	q2, _ := st2.Queue("q")
	b := st2.NewBatch()
	b.MapSet(m2, bkey(9), bkey(9))
	b.QueueEnqueue(q2, 9)
	b.Commit()
	if seq := dev2.ReadU64(st2.batchRec + batchRecSeqOff); seq <= status {
		t.Fatalf("first batch after reopen has sequence number %d, want above the durable status %d", seq, status)
	}
}

// TestBatchAsyncMultiRootTwoFences: a lone multi-root CommitAsync is
// durable at its fence B, so its ticket resolves after exactly two
// device fences, with no settle fence behind it.
func TestBatchAsyncMultiRootTwoFences(t *testing.T) {
	dev, st := newBatchTestStore(t)
	m, _ := st.Map("m")
	q, _ := st.Queue("q")
	st.Sync()
	st.StartGroupCommitter(0)
	defer st.StopGroupCommitter()

	base := dev.Stats()
	b := st.NewBatch()
	b.MapSet(m, bkey(1), bkey(1))
	b.QueueEnqueue(q, 1)
	tk := b.CommitAsync()
	tk.Wait()
	if err := tk.Err(); err != nil {
		t.Fatal(err)
	}
	if d := dev.Stats().Sub(base); d.Fences != 2 {
		t.Errorf("lone multi-root CommitAsync resolved after %d fences, want 2", d.Fences)
	}
}

// TestBatchRecordOldLayoutIdle: a store whose batch record has the
// earlier redo-only layout and is idle opens, with a new-layout record
// in its place that commits and recovers multi-root batches.
func TestBatchRecordOldLayoutIdle(t *testing.T) {
	cfg := pmem.DefaultConfig(64 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	st, err := newStore(dev)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := st.Map("m")
	m.Set(bkey(1), []byte("kept"))
	st.Sync()
	writeOldBatchRecord(dev, st.batchRec, 0)

	img := dev.CrashImage(pmem.CrashFencedOnly, 0)
	cfg2 := pmem.DefaultConfig(64 << 20)
	cfg2.TrackDurable = true
	dev2 := pmem.NewFromImage(cfg2, img)
	db2, _, err := Open(pmem.Config{}, WithDevices(dev2), WithAttach())
	if err != nil {
		t.Fatalf("open with an idle old-layout record: %v", err)
	}
	st2 := db2.Store()
	if f := dev2.ReadU64(st2.batchRec + batchRecFormatOff); f != batchRecFormat {
		t.Fatalf("record format word %#x after open, want %#x", f, uint64(batchRecFormat))
	}
	m2, _ := st2.Map("m")
	if v, ok := m2.Get(bkey(1)); !ok || string(v) != "kept" {
		t.Fatalf("key 1 = %q, %v; want \"kept\"", v, ok)
	}
	q2, _ := st2.Queue("q")
	b := st2.NewBatch()
	b.MapSet(m2, bkey(2), []byte("new"))
	b.QueueEnqueue(q2, 2)
	b.Commit()
	st2.Sync()
	db3, _, err := Open(pmem.DefaultConfig(64<<20), WithExistingImages([][]byte{dev2.CrashImage(pmem.CrashFencedOnly, 0)}))
	if err != nil {
		t.Fatal(err)
	}
	st3 := db3.Store()
	m3, _ := st3.Map("m")
	q3, _ := st3.Queue("q")
	if _, ok := m3.Get(bkey(2)); !ok || q3.Len() != 1 {
		t.Fatalf("batch after the layout change lost: key 2 present=%v queue=%d", ok, q3.Len())
	}
}

// TestBatchRecordOldLayoutPending: an old-layout record holding an
// unfinished batch fails the open with a descriptive error rather than
// being replayed by a second code path.
func TestBatchRecordOldLayoutPending(t *testing.T) {
	cfg := pmem.DefaultConfig(64 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	st, err := newStore(dev)
	if err != nil {
		t.Fatal(err)
	}
	st.Sync()
	writeOldBatchRecord(dev, st.batchRec, 7)
	_, _, err = Open(pmem.DefaultConfig(64<<20), WithExistingImages([][]byte{dev.CrashImage(pmem.CrashFencedOnly, 0)}))
	if err == nil || !strings.Contains(err.Error(), "redo-only layout") {
		t.Fatalf("open with a pending old-layout record: err = %v, want the layout error", err)
	}
}

// writeOldBatchRecord rewrites rec in the earlier redo-only layout
// (status, count, checksum, then 16-byte {cell, new} entries) with the
// given status, durably.
func writeOldBatchRecord(dev *pmem.Device, rec pmem.Addr, status uint64) {
	dev.WriteU64(rec, status)
	dev.WriteU64(rec+8, 2)
	dev.WriteU64(rec+16, 0x1234)
	for i := pmem.Addr(0); i < 4; i++ {
		dev.WriteU64(rec+24+8*i, 0)
	}
	dev.FlushRange(rec, 56)
	dev.Sfence()
}

// TestBatchSyncBarrier: Sync with an active committer must drain queued
// batches before returning.
func TestBatchSyncBarrier(t *testing.T) {
	_, st := newBatchTestStore(t)
	m, _ := st.Map("m")
	st.StartGroupCommitter(0)
	defer st.StopGroupCommitter()
	for i := 0; i < 100; i++ {
		b := st.NewBatch()
		b.MapSet(m, bkey(i), bkey(i))
		b.CommitAsync()
	}
	st.Sync()
	if got := m.Len(); got != 100 {
		t.Fatalf("after Sync map has %d entries, want 100", got)
	}
}

// TestLingerWindowLoneProducer: a producer that never submits while its
// ticket is pending misses every window, so the committer soon lingers
// only on every lingerProbeEvery-th settle — and goes back to lingering
// on every settle once windows catch submissions again.
func TestLingerWindowLoneProducer(t *testing.T) {
	var w lingerWindow
	const floor = 50 * time.Microsecond
	lingers := 0
	for i := 0; i < 240; i++ {
		d := w.next(floor)
		if d > 0 {
			w.lingered(false)
		}
		w.settled(100 * time.Microsecond)
		if i == 0 && d == 0 {
			t.Fatal("a fresh window does not linger")
		}
		if i >= 80 && d > 0 {
			lingers++
		}
	}
	if want := 160 / lingerProbeEvery; lingers != want {
		t.Errorf("lone producer: lingered on %d of the last 160 settles, want %d", lingers, want)
	}
	lingers = 0
	for i := 0; i < 200; i++ {
		d := w.next(floor)
		if d > 0 {
			w.lingered(true)
		}
		if i >= 150 && d > 0 {
			lingers++
		}
	}
	if lingers != 50 {
		t.Errorf("after company returns: lingered on %d of the last 50 settles, want all", lingers)
	}
}

// TestLingerWindowFloor: the window is k × the measured settle fence,
// never below the configured floor, and a floor of 0 never lingers.
func TestLingerWindowFloor(t *testing.T) {
	var w lingerWindow
	const floor = 50 * time.Microsecond
	for i := 0; i < 20; i++ {
		w.settled(100 * time.Nanosecond) // the simulator's fence
	}
	if d := w.next(floor); d != floor {
		t.Errorf("window over 100 ns fences = %v, want the %v floor", d, floor)
	}
	for i := 0; i < 200; i++ {
		w.settled(300 * time.Microsecond) // an msync
	}
	if d, want := w.next(floor), lingerFenceMult*300*time.Microsecond; d < want-time.Microsecond || d > want+time.Microsecond {
		t.Errorf("window over 300 µs fences = %v, want about %v", d, want)
	}
	for i := 0; i < 20; i++ {
		w.lingered(true)
		if d := w.next(0); d != 0 {
			t.Fatalf("floor 0 lingered %v", d)
		}
	}
}
