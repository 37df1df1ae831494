package alloc

import (
	"strings"
	"sync"
	"testing"

	"github.com/mod-ds/mod/internal/pmem"
)

func refPages(h *Heap) int {
	if p := h.sh.refs.pages.Load(); p != nil {
		return len(*p)
	}
	return 0
}

// TestRefCountsAcrossPagesAndGrowth gives every block its own count
// while the heap grows through several table pages (and the page index
// through several reallocations), then checks every count survived.
func TestRefCountsAcrossPagesAndGrowth(t *testing.T) {
	h := Format(pmem.New(pmem.DefaultConfig(1 << 20)))
	startPages := refPages(h)
	var blocks []pmem.Addr
	crossed := false
	for i := 0; refPages(h) < startPages+6; i++ {
		// Mixed strides so blocks land on both sides of each page edge.
		a := h.Alloc([]int{8, 100, 4000, 40}[i%4], 0)
		for r := 0; r < i%7; r++ {
			h.Retain(a)
		}
		if n := len(blocks); n > 0 && uint64(blocks[n-1])>>3>>refPageShift != uint64(a)>>3>>refPageShift {
			crossed = true
		}
		blocks = append(blocks, a)
	}
	if !crossed {
		t.Fatal("no two consecutive blocks straddle a page boundary")
	}
	for i, a := range blocks {
		if got, want := h.RefCount(a), int32(1+i%7); got != want {
			t.Fatalf("block %d at %#x: RefCount = %d, want %d", i, uint64(a), got, want)
		}
	}

	// Every 8-byte address has its own counter, and counters written
	// before the index grew keep their values after it grows.
	var tab refTable
	const step = refPageSlots * 2 // a quarter page of addresses per growth
	for top := pmem.Addr(0); top < 5*refPageSlots*8; top += step {
		tab.grow(top + step)
		for a := top; a < top+step; a += 8 {
			tab.slot(a).Store(int32(a >> 3))
		}
	}
	for a := pmem.Addr(0); a < 5*refPageSlots*8; a += 8 {
		if got := tab.slot(a).Load(); got != int32(a>>3) {
			t.Fatalf("counter for %#x reads %d, want %d: two addresses share a slot", uint64(a), got, a>>3)
		}
	}
	if tab.slot(5*refPageSlots*8) != nil {
		t.Fatal("an address above the grown table has a counter")
	}
}

// TestRefCountConcurrentRetainRelease hammers one shared child from 8
// goroutines on forked handles; the count must end exactly where the
// retains and releases put it, and the block must stay live.
func TestRefCountConcurrentRetainRelease(t *testing.T) {
	h := Format(pmem.New(pmem.DefaultConfig(1 << 20)))
	child := h.Alloc(16, 0)
	const workers, rounds = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hw := h.Fork()
			for i := 0; i < rounds; i++ {
				hw.Retain(child)
				hw.Retain(child)
				hw.Release(child)
				if w%2 == 1 {
					hw.Release(child) // odd workers hand back every reference they took
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := h.RefCount(child), int32(1+workers/2*rounds); got != want {
		t.Fatalf("RefCount = %d, want %d", got, want)
	}
	if h.Stats().Frees != 0 {
		t.Fatal("a block with live references was freed")
	}
}

// mustPanic runs f and fails unless it panics with a message containing
// want.
func mustPanic(t *testing.T, name, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("%s: no panic", name)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("%s: panic %q, want one containing %q", name, r, want)
		}
	}()
	f()
}

func TestRefCountPanicsOnNonBlocks(t *testing.T) {
	h := Format(pmem.New(pmem.DefaultConfig(1 << 20)))
	registerPairWalker(h)
	live := h.Alloc(40, 0)

	beyond := pmem.Addr(1<<20 - 64) // inside the arena, above the bump pointer
	below := live - 2*headerSize    // never allocated: the superblock
	for _, a := range []pmem.Addr{beyond, below} {
		mustPanic(t, "retain never-allocated", "retain of untracked block", func() { h.Retain(a) })
		mustPanic(t, "release never-allocated", "release of", func() { h.Release(a) })
	}

	inside := live + 8
	mustPanic(t, "retain inside a block", "retain of untracked block", func() { h.Retain(inside) })
	mustPanic(t, "release inside a block", "release of dead block", func() { h.Release(inside) })

	mustPanic(t, "retain misaligned", "misaligned", func() { h.Retain(live + 4) })
	mustPanic(t, "release misaligned", "misaligned", func() { h.Release(live + 4) })
	if got := h.RefCount(live); got != 1 {
		t.Fatalf("live block's count disturbed by neighbouring misuse: %d", got)
	}

	// A freed block is untracked again, for direct and cascaded releases.
	freed := h.Alloc(16, 0)
	parent := h.Alloc(16, tagPair)
	h.Device().WriteU64(parent, uint64(freed))
	h.Device().WriteU64(parent+8, 0)
	h.Release(freed)
	h.Drain()
	if h.Stats().Frees != 1 {
		t.Fatalf("Frees = %d, want 1", h.Stats().Frees)
	}
	mustPanic(t, "retain freed", "retain of untracked block", func() { h.Retain(freed) })
	mustPanic(t, "release freed", "release of dead block", func() { h.Release(freed) })
	mustPanic(t, "cascade into freed", "cascade release of dead block", func() { h.Release(parent) })
	if got := h.RefCount(freed); got != 0 {
		t.Fatalf("failed releases left the freed block's count at %d", got)
	}
}

// TestRecoverRebuildsCountsAcrossPages commits a shared DAG spread over
// several table pages and checks recovery rebuilds every count exactly
// as the running heap held it.
func TestRecoverRebuildsCountsAcrossPages(t *testing.T) {
	cfg := pmem.DefaultConfig(1 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	h := Format(dev)
	registerPairWalker(h)

	var leaves, parents []pmem.Addr
	for i := 0; i < 40; i++ {
		l := h.Alloc(4000, 0) // large leaves push parents onto later pages
		dev.FlushRange(l, 16)
		leaves = append(leaves, l)
	}
	for i := 0; i < 60; i++ {
		p := h.Alloc(16, tagPair)
		a, b := leaves[i%len(leaves)], leaves[(i*7)%len(leaves)]
		dev.WriteU64(p, uint64(a))
		dev.WriteU64(p+8, uint64(b))
		h.Retain(a)
		h.Retain(b)
		dev.FlushRange(p, 16)
		parents = append(parents, p)
	}
	for _, l := range leaves {
		h.Release(l) // drop the allocation reference: parents own them now
	}
	var slots []int
	for i := 0; i < 60; i += 3 {
		s, err := h.RootSlot(string(rune('A' + i/3)))
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	dev.Sfence()
	for i, s := range slots {
		h.SetRoot(s, parents[i*3])
	}
	dev.Sfence()
	// Parents not named by a root are garbage to recovery; drop them here
	// too so both heaps agree on what is live.
	for i, p := range parents {
		if i%3 != 0 {
			h.Release(p)
		}
	}
	h.Drain()
	if refPages(h) < 3 {
		t.Fatalf("heap spans %d table pages, want several", refPages(h))
	}

	h2, _, err := OpenAndRecover(pmem.NewFromImage(pmem.DefaultConfig(1<<20), dev.CrashImage(pmem.CrashFencedOnly, 1)))
	if err != nil {
		t.Fatal(err)
	}
	registerPairWalker(h2)
	if _, err := h2.Recover(); err != nil {
		t.Fatal(err)
	}
	for _, a := range append(leaves, parents...) {
		if got, want := h2.RefCount(a), h.RefCount(a); got != want {
			t.Fatalf("block %#x: recovered RefCount = %d, running heap had %d", uint64(a), got, want)
		}
	}
}
