package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"github.com/mod-ds/mod/internal/core"
	"github.com/mod-ds/mod/internal/pmem"
	"github.com/mod-ds/mod/internal/pmem/mmapdev"
	"github.com/mod-ds/mod/internal/server"
	"github.com/mod-ds/mod/internal/server/loadgen"
)

// respSpec is one RESP workload: a preloaded key space, writer
// connections that each own a disjoint share of it (so the benchmark
// knows every key's last acknowledged value), and reader connections
// that GET across all of it. Every connection is a closed loop.
type respSpec struct {
	keys       int   // preloaded keys
	writers    int   // SET connections, one key share each
	readers    int   // GET connections over every key
	multiEvery int   // every multiEvery-th write is a MULTI (0 = never)
	multiSize  int   // SETs per MULTI
	arenaBytes int64 // size of the data file
}

var respSpecs = map[string]respSpec{
	"resp-write": {keys: 10_000, writers: 2, multiEvery: 8, multiSize: 4, arenaBytes: 256 << 20},
	"resp-read":  {keys: 50_000, writers: 1, readers: 1, arenaBytes: 1 << 30},
}

const (
	valueSize = 64
	zipfS     = 1.1
	// preloadBatch keys go into one core.Batch: one commit per few
	// hundred keys keeps set-up short without handing a single fence
	// thousands of lines (see README.md, "Preload").
	preloadBatch = 256
	setupRounds  = 5
	// Recovery is reattached at least minRecoveries times and then
	// again while recoveryBudget lasts (at most maxRecoveries): a
	// small store recovers in tens of milliseconds, where one
	// scheduler hiccup would otherwise move the median.
	minRecoveries  = 11
	maxRecoveries  = 200
	recoveryBudget = 5 * time.Second
	mgetChunk      = 200
	// The store is configured as cmd/modserver configures it by
	// default.
	roots  = server.DefaultRoots
	linger = 50 * time.Microsecond
	// segment is how long a traced run records before switching
	// recording off (and back) to measure the tracing overhead.
	segment = 500 * time.Millisecond
	// slice is the unit the timed phase is cut into for throughput: a
	// rate is the median over whole slices, so a stall confined to a
	// few slices (a neighbour's burst on a shared disk) does not move
	// it.
	slice = 500 * time.Millisecond
)

// window is the timed phase.
type window struct{ start, deadline time.Time }

// tally counts one completion in its slice.
func (w window) tally(slices *[]int, at time.Time) {
	i := int(at.Sub(w.start) / slice)
	for len(*slices) <= i {
		*slices = append(*slices, 0)
	}
	(*slices)[i]++
}

func keyName(i int) []byte { return []byte(fmt.Sprintf("key:%07d", i)) }

// valuePrefix is what every value of key i starts with, so a reader can
// check that a GET returned a value written for the key it asked for.
func valuePrefix(i int) []byte { return []byte(fmt.Sprintf("v%07d:", i)) }

// makeValue returns the valueSize-byte value of key i written by
// writer tag as its seq-th write.
func makeValue(i int, tag string, seq int) []byte {
	v := make([]byte, 0, valueSize)
	v = append(v, valuePrefix(i)...)
	v = append(v, tag...)
	v = append(v, ':')
	v = strconv.AppendInt(v, int64(seq), 10)
	v = append(v, ':')
	for len(v) < valueSize {
		v = append(v, '.')
	}
	return v
}

// store is an open MOD store over one mmapdev file.
type store struct {
	dev *mmapdev.Device
	db  *core.DB
}

// openStore formats (attach false) or reattaches the store in path.
// With a tracer the device is wrapped before the store sees it.
func openStore(path string, size int64, tr *tracer, attach bool) (*store, core.RecoveryInfo, error) {
	var (
		dev *mmapdev.Device
		err error
	)
	if attach {
		dev, err = mmapdev.Open(path)
	} else {
		dev, err = mmapdev.Create(path, size)
	}
	if err != nil {
		return nil, core.RecoveryInfo{}, err
	}
	var b pmem.Backend = dev
	if tr != nil {
		b = tracedDev{Backend: dev, t: tr}
	}
	opts := []core.Option{core.WithDevices(b), core.WithCommitter(0), core.WithCommitterLinger(linger)}
	if attach {
		opts = append(opts, core.WithAttach())
	}
	db, info, err := core.Open(pmem.Config{}, opts...)
	if err != nil {
		dev.Close()
		return nil, info, fmt.Errorf("open store %s: %w", path, err)
	}
	return &store{dev: dev, db: db}, info, nil
}

// close closes the store (a no-op if a server already did) and then
// the file.
func (s *store) close() error {
	if err := s.db.Close(); err != nil {
		s.dev.Close()
		return err
	}
	return s.dev.Close()
}

// preload writes every key's initial value through core.Batch, in
// batches of preloadBatch keys, routed to the roots the server uses.
func preload(db *core.DB, n int) error {
	maps := make([]*core.Map, roots)
	for i := range maps {
		m, err := db.Map(server.RootName(i))
		if err != nil {
			return err
		}
		maps[i] = m
	}
	for lo := 0; lo < n; lo += preloadBatch {
		b := db.Batch()
		for i := lo; i < min(lo+preloadBatch, n); i++ {
			k := keyName(i)
			b.MapSet(maps[server.RootIndex(k, roots)], k, makeValue(i, "pre", 0))
		}
		tk := b.CommitAsync()
		tk.Wait()
		if err := tk.Err(); err != nil {
			return fmt.Errorf("preload keys %d..: %w", lo, err)
		}
	}
	return nil
}

// serving is a server started on a loopback listener.
type serving struct {
	srv  *server.Server
	addr string
	done chan error
}

func serve(kv core.KV, mws ...server.Middleware) (*serving, error) {
	srv, err := server.New(server.Config{
		KV:         kv,
		Roots:      roots,
		Middleware: append([]server.Middleware{server.Recover()}, mws...),
	})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &serving{srv: srv, addr: l.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(l) }()
	return s, nil
}

func (s *serving) dial() (*loadgen.Client, error) {
	c, err := net.Dial("tcp", s.addr)
	if err != nil {
		return nil, err
	}
	return loadgen.NewClient(c), nil
}

// stop drains the server, which syncs and closes its store, and waits
// for the accept loop to end.
func (s *serving) stop() error {
	if err := s.srv.Shutdown(context.Background()); err != nil {
		return err
	}
	return <-s.done
}

// expect is what the benchmark knows of one key after the timed phase.
type expect struct {
	val    []byte // last acknowledged value
	unsure []byte // a later write that failed: it may or may not be durable
}

// connResult is one connection's share of the timed phase.
type connResult struct {
	writeLat, readLat []time.Duration
	readLatOn         []time.Duration // GETs started while tracing recorded
	writes, reads     int             // acknowledged
	writeSlices       []int           // acknowledged writes per slice of the timed phase
	readSlices        []int           // GETs per slice
	onOps, offOps     int             // primary ops started with recording on / off
	attempted, failed int
	userBytes         int64 // key + value bytes of acknowledged SETs
	last              map[int]*expect
	err               error // first failure, for the report
}

func (r *connResult) fail(err error) {
	r.failed++
	if r.err == nil {
		r.err = err
	}
}

// respRun holds everything one RESP run measured.
type respRun struct {
	spec      respSpec
	setup     []time.Duration
	setupCPU  []time.Duration
	elapsed   time.Duration
	onDur     time.Duration
	offDur    time.Duration
	conns     []*connResult
	statsDiff pmem.Stats
	allocs    uint64 // allocator Allocs during the timed phase
	allocB    uint64 // allocator CumBytes during the timed phase
	liveEnd   uint64 // heap LiveBytes at the end of the timed phase
	recovery  []time.Duration
	liveRec   uint64 // heap LiveBytes after recovery
	recInfo   core.RecoveryInfo
	liveUser  int64 // key + value bytes of every live key
	checked   int   // keys read back after recovery
	mismatch  int   // keys whose read-back value was wrong
	auditErr  error
}

// runRESP runs one RESP workload in dir: set up (several times, keeping
// the last store), drive the timed phase over TCP, close, reattach and
// read every key back.
func runRESP(spec respSpec, dir string, seed int64, seconds int, tr *tracer) (*respRun, error) {
	run := &respRun{spec: spec}
	var (
		st   *store
		path string
	)
	for i := 0; i < setupRounds; i++ {
		p := filepath.Join(dir, fmt.Sprintf("setup%d.pm", i))
		start, cpu := time.Now(), cpuTime()
		s, _, err := openStore(p, spec.arenaBytes, tr, false)
		if err != nil {
			return nil, err
		}
		if err := preload(s.db, spec.keys); err != nil {
			s.close()
			return nil, err
		}
		run.setup = append(run.setup, time.Since(start))
		run.setupCPU = append(run.setupCPU, cpuTime()-cpu)
		if i < setupRounds-1 {
			// The file stays until the run ends: deleting it now would
			// put its discards into the timed phase's fences.
			if err := s.close(); err != nil {
				return nil, err
			}
			continue
		}
		st, path = s, p
	}

	var kv core.KV = st.db
	var mws []server.Middleware
	if tr != nil {
		kv = tracedKV{KV: st.db, t: tr}
		mws = append(mws, tr.middleware())
	}
	sv, err := serve(kv, mws...)
	if err != nil {
		st.close()
		return nil, err
	}
	runtime.GC()
	statsBefore := st.db.Stats()
	heapBefore := st.db.Store().Heap().Stats()
	if err := run.timed(sv, seed, seconds, tr); err != nil {
		sv.stop()
		st.dev.Close()
		return nil, err
	}
	run.statsDiff = st.db.Stats().Sub(statsBefore)
	heapAfter := st.db.Store().Heap().Stats()
	run.allocs = heapAfter.Allocs - heapBefore.Allocs
	run.allocB = heapAfter.CumBytes - heapBefore.CumBytes
	run.liveEnd = heapAfter.LiveBytes
	if err := sv.stop(); err != nil {
		st.dev.Close()
		return nil, err
	}
	if tr != nil {
		tr.wait()
	}
	if err := st.dev.Close(); err != nil {
		return nil, err
	}
	if err := run.reattach(path); err != nil {
		return nil, err
	}
	return run, nil
}

// timed drives every connection in a closed loop for seconds. With a
// tracer it also alternates recording on and off every segment.
func (run *respRun) timed(sv *serving, seed int64, seconds int, tr *tracer) error {
	spec := run.spec
	clients := make([]*loadgen.Client, spec.writers+spec.readers)
	for i := range clients {
		cl, err := sv.dial()
		if err != nil {
			for _, c := range clients[:i] {
				c.Close()
			}
			return err
		}
		clients[i] = cl
	}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds) * time.Second)
	win := window{start: start, deadline: deadline}
	var wg sync.WaitGroup
	if tr != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run.onDur, run.offDur = alternate(tr, deadline)
		}()
	}
	run.conns = make([]*connResult, len(clients))
	share := spec.keys / spec.writers
	for i, cl := range clients {
		r := &connResult{last: make(map[int]*expect)}
		run.conns[i] = r
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
		wg.Add(1)
		go func(i int, cl *loadgen.Client) {
			defer wg.Done()
			defer cl.Close()
			if i < spec.writers {
				w := writer{id: i, base: i * share, spec: spec, cl: cl,
					zipf: rand.NewZipf(rng, zipfS, 1, uint64(share-1)), tr: tr, res: r}
				w.loop(win)
				return
			}
			readLoop(cl, rand.NewZipf(rng, zipfS, 1, uint64(spec.keys-1)), tr, r, win)
		}(i, cl)
	}
	wg.Wait()
	run.elapsed = time.Since(start)
	return nil
}

// alternate switches recording on and off every segment until deadline
// and returns the time spent in each state.
func alternate(tr *tracer, deadline time.Time) (on, off time.Duration) {
	state := true
	for {
		now := time.Now()
		if !now.Before(deadline) {
			tr.on.Store(false)
			return on, off
		}
		tr.on.Store(state)
		d := min(segment, deadline.Sub(now))
		time.Sleep(d)
		elapsed := time.Since(now)
		if state {
			on += elapsed
		} else {
			off += elapsed
		}
		state = !state
	}
}

// writer is one SET connection over its own key share.
type writer struct {
	id, base int
	spec     respSpec
	cl       *loadgen.Client
	zipf     *rand.Zipf
	tr       *tracer
	res      *connResult
}

func (w *writer) loop(win window) {
	tag := "w" + strconv.Itoa(w.id)
	for n := 0; time.Now().Before(win.deadline); n++ {
		on := w.tr != nil && w.tr.on.Load()
		multi := w.spec.multiEvery > 0 && n%w.spec.multiEvery == w.spec.multiEvery-1
		keys := []int{w.base + int(w.zipf.Uint64())}
		for multi && len(keys) < w.spec.multiSize {
			k := w.base + int(w.zipf.Uint64())
			if !slices.Contains(keys, k) {
				keys = append(keys, k)
			}
		}
		vals := make([][]byte, len(keys))
		for j, k := range keys {
			vals[j] = makeValue(k, tag, n)
		}
		w.res.attempted++
		start := time.Now()
		var (
			rp  loadgen.Resp
			err error
		)
		if multi {
			sets := make([][2][]byte, len(keys))
			for j, k := range keys {
				sets[j] = [2][]byte{keyName(k), vals[j]}
			}
			rp, err = w.cl.Multi(sets)
		} else {
			rp, err = w.cl.Do([]byte("SET"), keyName(keys[0]), vals[0])
		}
		end := time.Now()
		lat := end.Sub(start)
		// A client error leaves the connection in an unknown state.
		broken := err != nil
		if !broken && !acked(rp, multi, len(keys)) {
			err = fmt.Errorf("write of %d keys: unexpected reply %+v", len(keys), rp)
		}
		if err != nil {
			w.res.fail(err)
			for j, k := range keys {
				w.res.expectFor(k).unsure = vals[j]
			}
			if broken {
				return
			}
			continue
		}
		w.res.writes++
		w.res.writeLat = append(w.res.writeLat, lat)
		win.tally(&w.res.writeSlices, end)
		if w.spec.readers == 0 {
			w.res.count(on)
		}
		for j, k := range keys {
			e := w.res.expectFor(k)
			e.val, e.unsure = vals[j], nil
			w.res.userBytes += int64(len(keyName(k)) + len(vals[j]))
		}
	}
}

func (r *connResult) expectFor(k int) *expect {
	e := r.last[k]
	if e == nil {
		e = &expect{}
		r.last[k] = e
	}
	return e
}

// count tallies one primary operation (the one the tracing overhead is
// measured on: GETs when the workload has readers, writes otherwise)
// by whether recording was on when it started.
func (r *connResult) count(on bool) {
	if on {
		r.onOps++
	} else {
		r.offOps++
	}
}

// readLoop issues Zipf GETs and checks each value belongs to its key.
func readLoop(cl *loadgen.Client, zipf *rand.Zipf, tr *tracer, r *connResult, win window) {
	for time.Now().Before(win.deadline) {
		on := tr != nil && tr.on.Load()
		k := int(zipf.Uint64())
		r.attempted++
		start := time.Now()
		rp, err := cl.Do([]byte("GET"), keyName(k))
		end := time.Now()
		lat := end.Sub(start)
		if err != nil {
			r.fail(err) // the connection is in an unknown state
			return
		}
		if rp.Kind != loadgen.RespBulk || rp.Nil || !bytes.HasPrefix(rp.Bulk, valuePrefix(k)) {
			r.fail(fmt.Errorf("GET %s: value %q does not belong to the key", keyName(k), rp.Bulk))
			continue
		}
		r.reads++
		r.readLat = append(r.readLat, lat)
		win.tally(&r.readSlices, end)
		if on {
			r.readLatOn = append(r.readLatOn, lat)
		}
		r.count(on)
	}
}

// acked reports whether rp acknowledges a SET or, for a MULTI, each of
// its n SETs.
func acked(rp loadgen.Resp, multi bool, n int) bool {
	if !multi {
		return rp.Kind == loadgen.RespSimple && rp.Str == "OK"
	}
	if rp.Kind != loadgen.RespArray || len(rp.Elems) != n {
		return false
	}
	for _, e := range rp.Elems {
		if !acked(e, false, 1) {
			return false
		}
	}
	return true
}

// reattach reattaches the closed file repeatedly, timing each
// from the attach to the first GET served. After the first it reads
// every key back and checks it against the last acknowledged value.
func (run *respRun) reattach(path string) error {
	want := run.expected()
	began := time.Now()
	for round := 0; round < minRecoveries || (round < maxRecoveries && time.Since(began) < recoveryBudget); round++ {
		// Collect the benchmark's own garbage outside the measurement.
		runtime.GC()
		start := time.Now()
		st, info, err := openStore(path, 0, nil, true)
		if err != nil {
			return err
		}
		sv, err := serve(st.db)
		if err != nil {
			st.close()
			return err
		}
		cl, err := sv.dial()
		if err == nil {
			var rp loadgen.Resp
			rp, err = cl.Do([]byte("GET"), keyName(0))
			run.recovery = append(run.recovery, time.Since(start))
			if err == nil && !want[0].accepts(rp) {
				err = fmt.Errorf("first GET after recovery: %s = %q, want %q", keyName(0), rp.Bulk, want[0].val)
			}
			if err == nil && round == 0 {
				run.recInfo = info
				run.liveRec = st.db.Store().Heap().Stats().LiveBytes
				err = run.readBack(cl, want)
			}
			cl.Close()
		}
		if serr := sv.stop(); err == nil {
			err = serr
		}
		if cerr := st.dev.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// expected merges the writers' knowledge over the preloaded values.
func (run *respRun) expected() []expect {
	want := make([]expect, run.spec.keys)
	for i := range want {
		want[i].val = makeValue(i, "pre", 0)
	}
	for _, c := range run.conns {
		for k, e := range c.last {
			if e.val != nil {
				want[k].val = e.val
			}
			want[k].unsure = e.unsure
		}
	}
	for i := range want {
		run.liveUser += int64(len(keyName(i)) + len(want[i].val))
	}
	return want
}

func (e expect) accepts(rp loadgen.Resp) bool {
	if rp.Kind != loadgen.RespBulk || rp.Nil {
		return false
	}
	return bytes.Equal(rp.Bulk, e.val) || (e.unsure != nil && bytes.Equal(rp.Bulk, e.unsure))
}

// readBack MGETs every key and counts values that are not the last
// acknowledged one.
func (run *respRun) readBack(cl *loadgen.Client, want []expect) error {
	for lo := 0; lo < len(want); lo += mgetChunk {
		hi := min(lo+mgetChunk, len(want))
		args := [][]byte{[]byte("MGET")}
		for i := lo; i < hi; i++ {
			args = append(args, keyName(i))
		}
		rp, err := cl.Do(args...)
		if err != nil {
			return err
		}
		if rp.Kind != loadgen.RespArray || len(rp.Elems) != hi-lo {
			return fmt.Errorf("MGET of %d keys: unexpected reply %+v", hi-lo, rp)
		}
		for j, e := range rp.Elems {
			run.checked++
			if !want[lo+j].accepts(e) {
				run.mismatch++
				if run.auditErr == nil {
					run.auditErr = fmt.Errorf("after recovery %s = %q, want %q", keyName(lo+j), e.Bulk, want[lo+j].val)
				}
			}
		}
	}
	return nil
}
