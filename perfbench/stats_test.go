package main

import (
	"math"
	"testing"

	"github.com/mod-ds/mod/internal/server/loadgen"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n      int
		q      float64
		value  float64
		usedQ  float64
		beyond int
	}{
		{n: 100, q: 0.5, value: 50, usedQ: 0.5, beyond: 50},
		{n: 2000, q: 0.99, value: 1980, usedQ: 0.99, beyond: 20},
		// 1000 samples leave one beyond p99.9: fall back to the highest
		// percentile that leaves ten.
		{n: 1000, q: 0.999, value: 990, usedQ: 0.99, beyond: 10},
		{n: 11, q: 0.5, value: 1, usedQ: 1.0 / 11, beyond: 10},
	}
	for _, c := range cases {
		p := percentile(seq(c.n), c.q)
		if !p.OK || p.Value != c.value || p.Beyond != c.beyond || math.Abs(p.Q-c.usedQ) > 1e-12 || p.N != c.n {
			t.Errorf("percentile(n=%d, q=%v) = %+v, want value %v, q %v, beyond %d", c.n, c.q, p, c.value, c.usedQ, c.beyond)
		}
	}
	if p := percentile(seq(10), 0.5); p.OK {
		t.Errorf("percentile of 10 samples = %+v, want none: no value has ten samples beyond it", p)
	}
}

func TestMedianAndRatio(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if xs[0] != 4 {
		t.Errorf("median reordered its input: %v", xs)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(ratio(1, 0)) {
		t.Error("an empty base must give NaN, not a number")
	}
	if got := ratio(3, 2); got != 1.5 {
		t.Errorf("ratio(3, 2) = %v", got)
	}
}

func TestMakeValue(t *testing.T) {
	v := makeValue(42, "w1", 7)
	if len(v) != valueSize || string(v[:len(valuePrefix(42))]) != string(valuePrefix(42)) {
		t.Fatalf("makeValue = %q: want %d bytes starting with %q", v, valueSize, valuePrefix(42))
	}
	if string(makeValue(42, "w1", 8)) == string(v) {
		t.Error("two writes of one key got the same value: a lost write would go unnoticed")
	}
}

func TestAcked(t *testing.T) {
	ok := loadgen.Resp{Kind: loadgen.RespSimple, Str: "OK"}
	bad := loadgen.Resp{Kind: loadgen.RespError, Str: "ERR boom"}
	arr := func(es ...loadgen.Resp) loadgen.Resp { return loadgen.Resp{Kind: loadgen.RespArray, Elems: es} }
	cases := []struct {
		rp    loadgen.Resp
		multi bool
		n     int
		want  bool
	}{
		{ok, false, 1, true},
		{bad, false, 1, false},
		{arr(ok, ok, ok, ok), true, 4, true},
		{arr(ok, ok, bad, ok), true, 4, false},
		{arr(ok, ok, ok), true, 4, false}, // a SET went missing
		{ok, true, 4, false},              // MULTI answered like a SET
	}
	for i, c := range cases {
		if got := acked(c.rp, c.multi, c.n); got != c.want {
			t.Errorf("case %d: acked = %v, want %v", i, got, c.want)
		}
	}
}
