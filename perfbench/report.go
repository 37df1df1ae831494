package main

import (
	"strings"
	"time"
)

// secs converts durations to float64 seconds.
func secs(ds []time.Duration) []float64 { return durs(ds, time.Second) }

// merged returns every connection's samples picked by f, as one slice.
func (run *respRun) merged(f func(*connResult) []time.Duration) []time.Duration {
	var out []time.Duration
	for _, c := range run.conns {
		out = append(out, f(c)...)
	}
	return out
}

func (run *respRun) total(f func(*connResult) int) int {
	n := 0
	for _, c := range run.conns {
		n += f(c)
	}
	return n
}

// sliceRate returns the median per-second rate over the whole slices
// of the timed phase (the last, cut-short slice is left out), or the
// plain rate when the phase is shorter than two slices.
func (run *respRun) sliceRate(f func(*connResult) []int, total int) float64 {
	whole := int(run.elapsed / slice)
	if whole < 2 {
		return ratio(float64(total), run.elapsed.Seconds())
	}
	sums := make([]float64, whole)
	for _, c := range run.conns {
		for i, n := range f(c) {
			if i < whole {
				sums[i] += float64(n)
			}
		}
	}
	return median(sums) / slice.Seconds()
}

// writeRate and readRate are the acknowledged writes and GETs per
// second, as medians over slices.
func (run *respRun) writeRate() float64 {
	return run.sliceRate(func(c *connResult) []int { return c.writeSlices }, run.writes())
}

func (run *respRun) readRate() float64 {
	return run.sliceRate(func(c *connResult) []int { return c.readSlices }, run.total(func(c *connResult) int { return c.reads }))
}

// The result line carries the same metrics on every workload:
// endToEndNames untraced, layerNames traced. They are defined over
// what the three workloads share, MOD's functional structures on a
// pmem backend, per counted operation: an acknowledged write on the
// RESP workloads (a MULTI counting as one; GETs take no fence and are
// left out, so the figures do not follow the read:write mix) and a
// Table 2 iteration on paper-sim. What only some workloads have is
// printed above the result line, not put in it.
var (
	endToEndNames = []string{"fences_per_op", "flushes_per_op", "alloc_bytes_per_op", "setup_s"}
	layerNames    = []string{"pmem.fences", "pmem.flushes_per_fence", "pmem.flush_frac", "alloc.live_bytes"}
)

// endToEnd fills the gated metrics: what an acknowledged write costs
// the medium (fences, flushed lines) and the heap (bytes of new
// nodes), and set-up time. The first three are the program's own
// counts, so they repeat closely from run to run. What the write
// costs the file and what the live keys cost the heap go to info.
func (run *respRun) endToEnd(m, info metrics) {
	writes := float64(run.writes())
	m.set("fences_per_op", ratio(float64(run.statsDiff.Fences), writes), "1/op")
	m.set("flushes_per_op", ratio(float64(run.statsDiff.Flushes), writes), "1/op")
	m.set("alloc_bytes_per_op", ratio(float64(run.allocB), writes), "B/op")
	m.set("setup_s", median(secs(run.setup)), "s")
	info.set("setup_cpu_s", median(secs(run.setupCPU)), "s")
	info.set("write_amp", ratio(float64(run.statsDiff.BytesWritten), float64(run.userBytes())), "ratio")
	info.set("space_amp", ratio(float64(run.liveRec), float64(run.liveUser)), "ratio")
}

// wallClock fills what a client times: throughput, median latency and
// recovery time, each name prefixed. On a shared VM these drift with
// the machine's speed, between runs minutes apart, by more than any
// usable bound (README.md), so they are printed and traced, not gated.
func (run *respRun) wallClock(m metrics, prefix string) {
	wl := durs(run.merged(func(c *connResult) []time.Duration { return c.writeLat }), time.Millisecond)
	m.set(prefix+"write_ops_per_s", run.writeRate(), "1/s")
	m.set(prefix+"write_p50_ms", pctValue(wl, 0.5), "ms")
	if run.spec.readers > 0 {
		rl := durs(run.merged(func(c *connResult) []time.Duration { return c.readLat }), time.Microsecond)
		m.set(prefix+"read_ops_per_s", run.readRate(), "1/s")
		m.set(prefix+"read_p50_us", pctValue(rl, 0.5), "us")
	}
	m.set(prefix+"recovery_s", median(secs(run.recovery)), "s")
}

func (run *respRun) writes() int { return run.total(func(c *connResult) int { return c.writes }) }

func (run *respRun) userBytes() int64 {
	var n int64
	for _, c := range run.conns {
		n += c.userBytes
	}
	return n
}

// pctValue is the value of percentile, NaN when there are too few
// samples (which run reports as a failed metric).
func pctValue(sorted []float64, q float64) float64 {
	p := percentile(sorted, q)
	if !p.OK {
		return ratio(0, 0)
	}
	return p.Value
}

// setPct sets name to a percentile plus name_beyond, the samples above
// it, and name_q, the percentile actually used.
func setPct(m metrics, name string, sorted []float64, q float64, unit string) {
	p := percentile(sorted, q)
	if !p.OK {
		m.set(name, ratio(0, 0), unit)
		return
	}
	m.set(name, p.Value, unit)
	m.set(name+"_beyond", float64(p.Beyond), "count")
	m.set(name+"_q", p.Q, "quantile")
}

// layerMetrics fills the per-layer metrics of a traced run: layerNames
// into m, the RESP layers' own figures into info. Timings and the
// line/page counts come from the wrappers and cover the recorded
// stretches only; the other counts are the program's own counters over
// the whole timed phase.
func (run *respRun) layerMetrics(tr *tracer, m, info metrics) {
	writes := run.writes()
	userBytes := run.userBytes()
	var fenceSum time.Duration
	for _, d := range tr.fences {
		fenceSum += d
	}
	m.set("pmem.fences", float64(run.statsDiff.Fences), "count")
	m.set("pmem.flushes_per_fence", ratio(float64(run.statsDiff.Flushes), float64(run.statsDiff.Fences)), "1/fence")
	m.set("pmem.flush_frac", ratio(fenceSum.Seconds(), run.onDur.Seconds()), "ratio")
	m.set("alloc.live_bytes", float64(run.liveEnd), "B")
	run.layerInfo(tr, info, writes, userBytes, fenceSum)
}

// layerInfo fills the figures of the layers only the RESP workloads
// have: client, server, core and mmapdev, plus the tracing overhead.
func (run *respRun) layerInfo(tr *tracer, m metrics, writes int, userBytes int64, fenceSum time.Duration) {

	// client: the benchmark's own view of each request, all samples.
	run.wallClock(m, "client.")
	wl := durs(run.merged(func(c *connResult) []time.Duration { return c.writeLat }), time.Millisecond)
	m.set("client.writes_acked", float64(writes), "count")
	setPct(m, "client.write_p99_ms", wl, 0.99, "ms")
	setPct(m, "client.write_p999_ms", wl, 0.999, "ms")
	if run.spec.readers > 0 {
		rl := durs(run.merged(func(c *connResult) []time.Duration { return c.readLat }), time.Microsecond)
		m.set("client.reads", float64(run.total(func(c *connResult) int { return c.reads })), "count")
		setPct(m, "client.read_p99_us", rl, 0.99, "us")
		setPct(m, "client.read_p999_us", rl, 0.999, "us")
	}

	// server: handler time per verb; MULTI's work happens in EXEC.
	for verb, name := range map[string]string{"GET": "get", "SET": "set", "EXEC": "multi"} {
		if ds := tr.handler[verb]; len(ds) > 0 {
			m.set("server."+name+".handler_us_p50", pctValue(durs(ds, time.Microsecond), 0.5), "us")
		}
	}
	if g := tr.handler["GET"]; len(g) > 0 {
		onGets := durs(run.merged(func(c *connResult) []time.Duration { return c.readLatOn }), time.Microsecond)
		m.set("server.get.outside_handler_us", pctValue(onGets, 0.5)-pctValue(durs(g, time.Microsecond), 0.5), "us")
	}

	// core: submission to durable ticket, and what of it is not the fence.
	var waitSum time.Duration
	for _, d := range tr.commitWaits {
		waitSum += d
	}
	cw := durs(tr.commitWaits, time.Microsecond)
	m.set("core.commits", float64(len(cw)), "count")
	m.set("core.commit_wait_us_p50", pctValue(cw, 0.5), "us")
	m.set("core.commit_wait_us_p99", pctValue(cw, 0.99), "us")
	m.set("core.commit_nonfence_us_mean", ratio(float64(waitSum-fenceSum)/1e3, float64(len(cw))), "us")
	m.set("core.batches", float64(tr.batches), "count")
	m.set("core.ops_per_batch", ratio(float64(tr.batchedOps), float64(tr.batches)), "ops")

	// mmapdev: the fence, what it is given, and what reaches the file.
	fl := durs(tr.fences, time.Microsecond)
	m.set("mmapdev.fences", float64(len(fl)), "count")
	m.set("mmapdev.fence_us_p50", pctValue(fl, 0.5), "us")
	m.set("mmapdev.fence_us_p99", pctValue(fl, 0.99), "us")
	m.set("mmapdev.lines_per_fence", ratio(float64(tr.fenceLines), float64(len(fl))), "lines")
	m.set("mmapdev.pages_per_fence", ratio(float64(tr.fencePages), float64(len(fl))), "pages")
	m.set("mmapdev.fences_per_write", ratio(float64(run.statsDiff.Fences), float64(writes)), "1/write")
	m.set("client.user_bytes", float64(userBytes), "B")
	m.set("mmapdev.bytes_written_per_user_byte", ratio(float64(run.statsDiff.BytesWritten), float64(userBytes)), "ratio")

	// alloc: allocation rate and what recovery found.
	m.set("alloc.allocs_per_write", ratio(float64(run.allocs), float64(writes)), "1/write")
	m.set("alloc.recovery.live_blocks", float64(run.recInfo.Stats.LiveBlocks), "count")

	// tracing overhead: primary-op rate with recording off vs on.
	on := run.total(func(c *connResult) int { return c.onOps })
	off := run.total(func(c *connResult) int { return c.offOps })
	onRate := ratio(float64(on), run.onDur.Seconds())
	offRate := ratio(float64(off), run.offDur.Seconds())
	m.set("trace.on_ops_per_s", onRate, "1/s")
	m.set("trace.off_ops_per_s", offRate, "1/s")
	m.set("trace.overhead_frac", 1-ratio(onRate, offRate), "ratio")
}

// suiteTotals sums a pass into suite-level ops, simulated ns, flushes
// and fences.
func suiteTotals(p simPass) (ops int, ns float64, flushes, fences uint64) {
	for _, r := range p {
		ops += r.Ops
		ns += r.SimNs
		flushes += r.Flushes
		fences += r.Fences
	}
	return
}

// allocBytes is the suite's bytes allocated by its measured
// operations: each workload's CumBytes at full length less its
// CumBytes at one operation, which holds the same set-up.
func (run *simRun) allocBytes() (bytes float64, ops int) {
	for i, r := range run.first {
		bytes += float64(r.CumBytes) - float64(run.base[i].CumBytes)
		ops += r.Ops - run.base[i].Ops
	}
	return bytes, ops
}

// endToEnd fills the suite totals per Table 2 iteration; the simulated
// throughput goes to info.
func (run *simRun) endToEnd(m, info metrics) {
	ops, ns, flushes, fences := suiteTotals(run.first)
	allocB, allocOps := run.allocBytes()
	m.set("fences_per_op", ratio(float64(fences), float64(ops)), "1/op")
	m.set("flushes_per_op", ratio(float64(flushes), float64(ops)), "1/op")
	m.set("alloc_bytes_per_op", ratio(allocB, float64(allocOps)), "B/op")
	m.set("setup_s", median(secs(run.setup)), "s")
	info.set("setup_cpu_s", median(secs(run.setupCPU)), "s")
	info.set("sim_ops_per_s", ratio(float64(ops), ns/1e9), "1/s")
}

// layerMetrics fills layerNames from the suite totals into m and the
// Fig. 9/10/11 quantities of each workload into info.
func (run *simRun) layerMetrics(m, info metrics) {
	var simNs, flushNs float64
	var live uint64
	for _, r := range run.first {
		simNs += r.SimNs
		flushNs += r.FlushNs
		live += r.LiveBytes
	}
	_, _, flushes, fences := suiteTotals(run.first)
	m.set("pmem.fences", float64(fences), "count")
	m.set("pmem.flushes_per_fence", ratio(float64(flushes), float64(fences)), "1/fence")
	m.set("pmem.flush_frac", ratio(flushNs, simNs), "ratio")
	m.set("alloc.live_bytes", float64(live), "B")
	for i, r := range run.first {
		w := strings.ToLower(r.Workload)
		info.set("funcds."+w+".sim_ns_per_op", ratio(r.SimNs, float64(r.Ops)), "ns")
		info.set("funcds."+w+".flushes_per_op", r.FlushesPerOp(), "1/op")
		info.set("funcds."+w+".fences_per_op", r.FencesPerOp(), "1/op")
		info.set("pmem."+w+".flush_frac", ratio(r.FlushNs, r.SimNs), "ratio")
		info.set("cachesim."+w+".l1d_miss_ratio", r.Cache.MissRatio(), "ratio")
		info.set("alloc."+w+".bytes_per_op",
			ratio(float64(r.CumBytes)-float64(run.base[i].CumBytes), float64(r.Ops-run.base[i].Ops)), "B/op")
	}
}
