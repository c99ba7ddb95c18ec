package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/outcome"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		used float64
	}{
		{1000, 0.99, 0.99}, // ranks 990..999 lie beyond rank 989.01
		{902, 0.99, 0.99},  // 10 beyond
		{901, 0.99, 0.95},  // 9 beyond: one rung down
		{200, 0.99, 0.95},  // 10 beyond p95
		{50, 0.99, 0.75},   // 5 beyond p90, 13 beyond p75
		{5, 0.99, 0.5},     // too few for any rung: the median
		{1000, 0.5, 0.5},
	}
	for _, c := range cases {
		_, used := tailPercentile(seq(c.n), c.p)
		if used != c.used {
			t.Errorf("n=%d p=%v: used %v, want %v", c.n, c.p, used, c.used)
		}
	}
	if v, _ := tailPercentile(seq(1000), 0.99); v < 990 || v > 991 {
		t.Errorf("p99 of 1..1000 = %v", v)
	}
	if v, _ := tailPercentile(seq(3), 0.5); v != 2 {
		t.Errorf("median of 1..3 = %v", v)
	}
}

func TestScheduleDeterministicBySeed(t *testing.T) {
	a := schedule(7, 0, 500, 10, 24)
	if !reflect.DeepEqual(a, schedule(7, 0, 500, 10, 24)) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, schedule(8, 0, 500, 10, 24)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if reflect.DeepEqual(a, schedule(7, 1, 500, 10, 24)) {
		t.Fatal("different windows gave the same schedule")
	}
	if len(a) != 500 {
		t.Fatalf("%d arrivals, want 500", len(a))
	}
	for i, x := range a {
		if x.at < 0 || x.at >= 10*time.Second || x.item < 0 || x.item >= 24 {
			t.Fatalf("arrival %d out of range: %+v", i, x)
		}
		if i > 0 && x.at < a[i-1].at {
			t.Fatalf("arrivals out of order at %d", i)
		}
	}
}

func sampleTrials() []core.Trial {
	return []core.Trial{
		{Site: faults.Site{Fault: faults.Mem2Bit, Row: 3, Col: 5, Bits: []int{14, 9}}, Instance: 2, Fired: true,
			Outcome:   outcome.Analysis{Class: outcome.SDCSubtle, LengthRatio: 1, Changed: true},
			Metrics:   map[metrics.Kind]float64{metrics.KindBLEU: 0.5, metrics.KindAccuracy: 1, metrics.KindRougeL: 0.25},
			Detection: &core.Detection{Checks: 3472, Flagged: 2, AtSite: true}},
		{Instance: 1, Steps: 12, Metrics: map[metrics.Kind]float64{metrics.KindBLEU: 1}},
	}
}

func TestDigestsStable(t *testing.T) {
	d := trialDigest(sampleTrials())
	for i := 0; i < 20; i++ { // map iteration order varies from call to call
		if got := trialDigest(sampleTrials()); got != d {
			t.Fatalf("trial digest changed: %s then %s", d, got)
		}
	}
	moved := sampleTrials()
	moved[0].Detection.Flagged = 3
	if trialDigest(moved) == d {
		t.Fatal("trial digest ignores Detection")
	}
	keys := []respKey{{Tokens: []int{4, 5}, Fired: true, Outcome: "masked", Detected: 1}, {Tokens: []int{7}}}
	rd := responseDigest(keys)
	if responseDigest(slices.Clone(keys)) != rd {
		t.Fatal("response digest not stable")
	}
	keys[1].Tokens = []int{8}
	if responseDigest(keys) == rd {
		t.Fatal("response digest ignores tokens")
	}
}

func TestGateComparisonsTripOnMutation(t *testing.T) {
	orig := sampleTrials()[0]
	mutations := map[string]func(*core.Trial){
		"outcome":   func(t *core.Trial) { t.Outcome.Class = outcome.SDCDistorted },
		"fired":     func(t *core.Trial) { t.Fired = false },
		"detection": func(t *core.Trial) { d := *t.Detection; d.Flagged++; t.Detection = &d },
		"metric": func(t *core.Trial) {
			t.Metrics = map[metrics.Kind]float64{metrics.KindBLEU: 0.5, metrics.KindAccuracy: 0, metrics.KindRougeL: 0.25}
		},
		"site bits": func(t *core.Trial) { t.Site.Bits = []int{14, 8} },
	}
	if !sameTrial(orig, sampleTrials()[0]) {
		t.Fatal("identical trials compared unequal")
	}
	for name, mutate := range mutations {
		m := sampleTrials()[0]
		mutate(&m)
		if sameTrial(orig, m) {
			t.Errorf("%s: mutated trial passed the gate", name)
		}
	}
	r := respKey{Tokens: []int{1, 2, 3}, Fired: true, Outcome: "subtle", Detected: 2}
	for name, m := range map[string]respKey{
		"tokens":   {Tokens: []int{1, 2, 4}, Fired: true, Outcome: "subtle", Detected: 2},
		"fired":    {Tokens: []int{1, 2, 3}, Outcome: "subtle", Detected: 2},
		"outcome":  {Tokens: []int{1, 2, 3}, Fired: true, Outcome: "masked", Detected: 2},
		"detected": {Tokens: []int{1, 2, 3}, Fired: true, Outcome: "subtle"},
	} {
		if sameResponse(r, m) {
			t.Errorf("%s: mutated response passed the gate", name)
		}
	}
}

// TestCampaignReplayGateTrips runs a small campaign, corrupts every
// recorded trial, and requires every replay to report a mismatch; the
// untouched run must replay clean.
func TestCampaignReplayGateTrips(t *testing.T) {
	b, err := newCampaignBench(decodeComp, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := b.measure(ctx, 0.01, 0, nil); err != nil {
		t.Fatal(err)
	}
	g, err := b.verify(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if g.checked != replaySample || g.mismatched != 0 {
		t.Fatalf("clean run: %d of %d replays mismatched", g.mismatched, g.checked)
	}
	for i := range b.rounds[0].res.Trials {
		b.rounds[0].res.Trials[i].Steps++
	}
	if g, err = b.verify(ctx); err != nil {
		t.Fatal(err)
	}
	if g.mismatched != g.checked {
		t.Fatalf("mutated run: only %d of %d replays mismatched", g.mismatched, g.checked)
	}
}

// TestServeReplayGateTrips does the same for served responses.
func TestServeReplayGateTrips(t *testing.T) {
	bi, err := newServeBench(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	b := bi.(*serveBench)
	defer b.close()
	ctx := context.Background()
	w, err := b.measure(ctx, 0.2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w.failed != 0 {
		t.Fatalf("%d of %d requests failed", w.failed, w.ops)
	}
	g, err := b.verify(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if g.mismatched != 0 {
		t.Fatalf("clean run: %d of %d replays mismatched", g.mismatched, g.checked)
	}
	for i := range b.parts[0] {
		b.parts[0][i].key.Tokens = append(slices.Clone(b.parts[0][i].key.Tokens), 0)
	}
	if g, err = b.verify(ctx); err != nil {
		t.Fatal(err)
	}
	if g.mismatched != g.checked {
		t.Fatalf("mutated run: only %d of %d replays mismatched", g.mismatched, g.checked)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: "a", Name: "run", Start: 0, End: 100},
		{ID: "b", Parent: "a", Name: "trial", Start: 10, End: 50},
		{ID: "c", Parent: "a", Name: "trial", Start: 40, End: 70},  // overlaps b
		{ID: "d", Parent: "a", Name: "trial", Start: 90, End: 130}, // runs past a
	}
	got := selfTimes(spans)
	want := []layerTime{
		{Name: "run", Count: 1, TotalMS: 100e-6, SelfMS: 30e-6},
		{Name: "trial", Count: 3, TotalMS: 110e-6, SelfMS: 110e-6},
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Name != w.Name || g.Count != w.Count || !near(g.TotalMS, w.TotalMS) || !near(g.SelfMS, w.SelfMS) {
			t.Errorf("got %+v, want %+v", g, w)
		}
	}
}

func near(a, b float64) bool { return a-b < 1e-12 && b-a < 1e-12 }

// TestNamesMatchBenchmarkJSON keeps the metric and workload names the
// program prints in step with the declaration at the repository root.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range decl.Workloads {
		wl = append(wl, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(wl, ours) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", wl, ours)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, printed []layerName) {
		if len(declared) != len(printed) {
			t.Errorf("%s: %d declared, %d printed", kind, len(declared), len(printed))
			return
		}
		for i := range declared {
			if declared[i].Name != printed[i].name || declared[i].Unit != printed[i].unit {
				t.Errorf("%s %d: declared %s [%s], printed %s [%s]", kind, i,
					declared[i].Name, declared[i].Unit, printed[i].name, printed[i].unit)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEndNames())
	check("per_layer", decl.PerLayer, perLayerNames())
}
