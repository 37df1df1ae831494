package main

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mod-ds/mod/internal/core"
	"github.com/mod-ds/mod/internal/pmem"
	"github.com/mod-ds/mod/internal/server"
)

// pageLineShift converts a 64 B line index into a 4 KiB page index.
const pageLineShift = 12 - pmem.LineShift

// tracer times the layers of the RESP stack from outside the program.
// It is installed only through parameters the program already takes: a
// server.Middleware, a core.KV passed as server.Config.KV, and a
// pmem.Backend passed to core.WithDevices. While on is false every
// wrapper passes straight through, so a traced run can alternate
// recorded and unrecorded stretches and report what recording costs.
type tracer struct {
	on atomic.Bool

	mu          sync.Mutex
	handler     map[string][]time.Duration // command verb → handler time
	commitWaits []time.Duration            // CommitAsync → ticket durable
	fences      []time.Duration            // Sfence wall time
	fenceLines  int64                      // Σ distinct lines noted per recorded fence
	fencePages  int64                      // Σ distinct pages noted per recorded fence
	batches     int64                      // NoteBatch calls while on
	batchedOps  int64                      // Σ ops of those batches
	lines       map[uint64]struct{}        // lines noted since the last fence

	pending sync.WaitGroup // commit-wait watchers still running
}

func newTracer() *tracer {
	return &tracer{handler: make(map[string][]time.Duration), lines: make(map[uint64]struct{})}
}

// wait blocks until every commit-wait watcher has recorded its sample.
func (t *tracer) wait() { t.pending.Wait() }

// middleware times each command's handler, keyed by verb.
func (t *tracer) middleware() server.Middleware {
	return func(next server.Handler) server.Handler {
		return func(c *server.Conn, cmd server.Command) server.Reply {
			if !t.on.Load() {
				return next(c, cmd)
			}
			start := time.Now()
			rp := next(c, cmd)
			d := time.Since(start)
			verb := strings.ToUpper(cmd.Name)
			t.mu.Lock()
			t.handler[verb] = append(t.handler[verb], d)
			t.mu.Unlock()
			return rp
		}
	}
}

// tracedKV wraps the store the server is given, so every batch the
// server builds reports how long its durability ticket took.
type tracedKV struct {
	core.KV
	t *tracer
}

func (k tracedKV) ForkKV() core.KV { return tracedKV{KV: k.KV.ForkKV(), t: k.t} }

func (k tracedKV) Batch() core.Batcher { return tracedBatch{Batcher: k.KV.Batch(), t: k.t} }

type tracedBatch struct {
	core.Batcher
	t *tracer
}

// CommitAsync submits the batch and, while recording, starts a watcher
// that waits on the same ticket the server waits on and records the
// time from submission to durability.
func (b tracedBatch) CommitAsync() *core.Ticket {
	if !b.t.on.Load() {
		return b.Batcher.CommitAsync()
	}
	start := time.Now()
	tk := b.Batcher.CommitAsync()
	b.t.pending.Add(1)
	go func() {
		defer b.t.pending.Done()
		tk.Wait()
		d := time.Since(start)
		b.t.mu.Lock()
		b.t.commitWaits = append(b.t.commitWaits, d)
		b.t.mu.Unlock()
	}()
	return tk
}

// tracedDev wraps a device: it notes the lines each fence is given and
// times the fence itself. Forks share the tracer, as forks of a device
// share its noted-line set.
type tracedDev struct {
	pmem.Backend
	t *tracer
}

func (d tracedDev) Fork() pmem.Backend { return tracedDev{Backend: d.Backend.Fork(), t: d.t} }

func (d tracedDev) Clwb(addr pmem.Addr) {
	if d.t.on.Load() {
		d.t.mu.Lock()
		d.t.lines[uint64(addr)>>pmem.LineShift] = struct{}{}
		d.t.mu.Unlock()
	}
	d.Backend.Clwb(addr)
}

func (d tracedDev) FlushRange(addr pmem.Addr, n int) {
	if n > 0 && d.t.on.Load() {
		first := uint64(addr) >> pmem.LineShift
		last := (uint64(addr) + uint64(n) - 1) >> pmem.LineShift
		d.t.mu.Lock()
		for ln := first; ln <= last; ln++ {
			d.t.lines[ln] = struct{}{}
		}
		d.t.mu.Unlock()
	}
	d.Backend.FlushRange(addr, n)
}

// Sfence takes the noted set (so a fence never counts lines noted
// before recording resumed), then times the device's fence.
func (d tracedDev) Sfence() {
	on := d.t.on.Load()
	d.t.mu.Lock()
	lines := len(d.t.lines)
	pages := make(map[uint64]struct{})
	if on {
		for ln := range d.t.lines {
			pages[ln>>pageLineShift] = struct{}{}
		}
	}
	clear(d.t.lines)
	d.t.mu.Unlock()
	if !on {
		d.Backend.Sfence()
		return
	}
	start := time.Now()
	d.Backend.Sfence()
	dur := time.Since(start)
	d.t.mu.Lock()
	d.t.fences = append(d.t.fences, dur)
	d.t.fenceLines += int64(lines)
	d.t.fencePages += int64(len(pages))
	d.t.mu.Unlock()
}

func (d tracedDev) NoteBatch(ops int) {
	if ops > 0 && d.t.on.Load() {
		d.t.mu.Lock()
		d.t.batches++
		d.t.batchedOps += int64(ops)
		d.t.mu.Unlock()
	}
	d.Backend.NoteBatch(ops)
}
