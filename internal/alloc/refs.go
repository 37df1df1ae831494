package alloc

import (
	"fmt"
	"sync/atomic"

	"github.com/mod-ds/mod/internal/pmem"
)

// refTable holds the volatile reference counts (§5.3): one atomic.Int32
// per 8-byte arena address, so a payload address is its own index and a
// lookup is two loads, with no hashing and no per-block allocation. The
// slots live in fixed-size pages that hold no pointers, so the garbage
// collector never scans them. Pages are allocated as the bump pointer
// grows and are never freed or moved; a grown page index is republished
// through an atomic pointer, so lookups take no lock. A count of zero means the address is not a live block: never
// allocated, freed, retired, or inside another block's payload.
//
// The table costs 4 B of DRAM per 8 B of heap below the bump pointer,
// whether or not that heap holds live blocks.
type refTable struct {
	pages atomic.Pointer[[]*refPage]
}

const (
	refPageShift = 13 // 8192 slots per page: 32 KiB covering 64 KiB of heap
	refPageSlots = 1 << refPageShift
)

type refPage [refPageSlots]atomic.Int32

// slot returns the counter for the 8-aligned address a, or nil when a
// lies above every allocated page. A misaligned address panics: no block
// payload can start there, and rounding it would alias a neighbour.
func (t *refTable) slot(a pmem.Addr) *atomic.Int32 {
	if a&7 != 0 {
		panic(fmt.Sprintf("alloc: reference count of misaligned address %#x", uint64(a)))
	}
	pages := t.pages.Load()
	if pages == nil {
		return nil
	}
	i := uint64(a) >> 3
	if p := i >> refPageShift; p < uint64(len(*pages)) {
		return &(*pages)[p][i&(refPageSlots-1)]
	}
	return nil
}

// grow allocates pages until every address below top has a slot. The
// caller serializes growth (it holds the heap mutex, or owns the heap
// during recovery). Appending past the published length writes index
// cells no reader can see, so readers of the old index never race with
// the copy.
func (t *refTable) grow(top pmem.Addr) {
	need := int((uint64(top)>>3 + refPageSlots - 1) >> refPageShift)
	var pages []*refPage
	if p := t.pages.Load(); p != nil {
		pages = *p
	}
	if len(pages) >= need {
		return
	}
	for len(pages) < need {
		pages = append(pages, new(refPage))
	}
	t.pages.Store(&pages)
}

// reset drops every count and sizes the table for a heap whose bump
// pointer is top.
func (t *refTable) reset(top pmem.Addr) {
	t.pages.Store(nil)
	t.grow(top)
}
