// Command perfbench is llmfi's benchmark. One invocation runs one named
// workload for a fixed time, checks that the program's outputs are
// correct, and prints one JSON object as the last line of standard
// output: the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). BENCHMARK.json at the repository root declares the
// workloads, the metrics and their regression bounds; README.md in this
// directory describes each of them.
//
//	bash perfbench/run.sh --workload serve-faults --seed 3 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a trace-0 run sets its workload up; setup_s
// is the median, so one slow set-up does not read as a regression.
const setupReps = 5

// outDir, relative to the working directory, receives each run's
// provenance record and, for traced runs, the span file.
const outDir = ".bench_out"

// bench is one workload after set-up.
type bench interface {
	// measure runs the workload for about seconds. part numbers the
	// measured windows of one run, so each draws distinct inputs. A nil
	// tracer means tracing is off.
	measure(ctx context.Context, seconds float64, part int, tr *tracer) (*window, error)
	// verify replays a seeded sample of every measured operation through
	// the reference path and digests the first window's outputs.
	verify(ctx context.Context) (gate, error)
	// layers adds the per-layer metrics of the traced window w.
	layers(ctx context.Context, w *window, tr *tracer, out map[string]float64) error
	close()
}

// window is what one measured stretch of a workload produced.
type window struct {
	ops    int             // operations attempted: trials or requests
	failed int             // operations that failed or returned wrong output
	wall   time.Duration   // first operation due to last result back
	rates  []float64       // completed trials/s, one per round (serve: one)
	lat    []time.Duration // latency samples (see README)
	within int             // operations that succeeded within the latency limit
	cost   float64         // per-operation cost compared traced vs untraced
}

// gate is the outcome of the correctness replay.
type gate struct {
	checked, mismatched int
	digest              string
}

type workloadDef struct {
	name  string
	setup func(ctx context.Context, seed uint64) (bench, error)
}

var workloads = []workloadDef{
	{"campaign-decode-comp", func(ctx context.Context, seed uint64) (bench, error) {
		return newCampaignBench(decodeComp, seed)
	}},
	{"campaign-score-mem", func(ctx context.Context, seed uint64) (bench, error) {
		return newCampaignBench(scoreMem, seed)
	}},
	{"serve-faults", newServeBench},
	{"fleet-decode-comp", newFleetBench},
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 10, "seconds to measure")
	traceOn := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	rep, err := execute(context.Background(), def, *seed, *seconds, *traceOn == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", def.name, err)
		return 1
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	info, _ := json.Marshal(rep.info)
	fmt.Fprintf(stdout, "%s\n%s\n", info, line)
	if !rep.result.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: correctness gate failed: %d of %d operations failed\n",
			def.name, rep.result.Failed, rep.result.Attempted)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// report is one run's result plus the provenance printed and saved with
// it.
type report struct {
	result result
	info   map[string]any
}

// execute sets the workload up, measures it, replays a sample for
// correctness, and assembles the metrics.
func execute(ctx context.Context, def *workloadDef, seed uint64, seconds float64, traced bool, log io.Writer) (*report, error) {
	reps := setupReps
	if traced {
		reps = 1
	}
	var b bench
	setups := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		nb, err := def.setup(ctx, seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		b = nb
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer b.close()

	metrics := make(map[string]metric)
	info := map[string]any{
		"workload": def.name, "seed": seed, "seconds": seconds, "traced": traced,
		"provenance": provenance(),
	}
	var windows []*window
	if !traced {
		w, err := b.measure(ctx, seconds, 0, nil)
		if err != nil {
			return nil, err
		}
		windows = append(windows, w)
		p50, _ := tailPercentile(sortedMS(w.lat), 0.5)
		p99, used := tailPercentile(sortedMS(w.lat), 0.99)
		info["latency_samples"] = len(w.lat)
		info["round_rates"] = w.rates
		info["latency_p99_percentile_used"] = used
		value := map[string]float64{
			"setup_s":        median(setups),
			"trials_per_s":   median(w.rates),
			"latency_p50_ms": p50,
			"latency_p99_ms": p99,
			"slo_attain":     float64(w.within) / float64(w.ops),
			"peak_rss_mb":    peakRSSMiB(),
		}
		for _, n := range endToEndNames() {
			metrics[n.name] = metric{value[n.name], n.unit}
		}
	} else {
		// Half the time untraced, half traced: the difference is the
		// tracing overhead, and the traced half gives the layer numbers.
		plain, err := b.measure(ctx, seconds/2, 0, nil)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		w, err := b.measure(ctx, seconds/2, 1, tr)
		if err != nil {
			return nil, err
		}
		windows = append(windows, plain, w)
		layer := map[string]float64{
			"obs.spans_per_request":   ratio(float64(len(tr.snapshot())), float64(w.ops)),
			"obs.trace_overhead_frac": w.cost/plain.cost - 1,
		}
		// The kernel measurements run after the window and add their own
		// spans, which spans_per_request leaves out.
		if err := b.layers(ctx, w, tr, layer); err != nil {
			return nil, err
		}
		kernelLayers(tr, layer)
		spans := tr.snapshot()
		summary := selfTimes(spans)
		for _, name := range perLayerNames() {
			metrics[name.name] = metric{layer[name.name], name.unit}
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-spans.jsonl", def.name, seed))
		if err := writeTrace(path, spans, summary); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		info["spans_file"] = path
		fmt.Fprintf(log, "perfbench: %d spans; self time by layer:\n", len(spans))
		for _, lt := range summary {
			fmt.Fprintf(log, "  %-28s n=%-7d total=%10.1fms self=%10.1fms\n", lt.Name, lt.Count, lt.TotalMS, lt.SelfMS)
		}
	}

	g, err := b.verify(ctx)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	res := result{Metrics: metrics}
	for _, w := range windows {
		res.Attempted += w.ops
		res.Failed += w.failed
	}
	res.Attempted += g.checked
	res.Failed += g.mismatched
	res.Correct = res.Failed == 0
	info["digest"] = g.digest
	info["replayed"] = g.checked
	info["replay_mismatches"] = g.mismatched
	if err := saveInfo(def.name, seed, traced, info, res); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "perfbench: %s seed=%d digest=%s replayed=%d mismatches=%d\n",
		def.name, seed, g.digest, g.checked, g.mismatched)
	return &report{result: res, info: info}, nil
}

// saveInfo writes the run's provenance and result next to its spans.
func saveInfo(name string, seed uint64, traced bool, info map[string]any, res result) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	saved := map[string]any{"result": res}
	for k, v := range info {
		saved[k] = v
	}
	data, err := json.MarshalIndent(saved, "", "  ")
	if err != nil {
		return err
	}
	t := 0
	if traced {
		t = 1
	}
	return os.WriteFile(filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, t)), append(data, '\n'), 0o644)
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// layerName is one per-layer metric with its unit.
type layerName struct{ name, unit string }

// perLayerNames lists every per-layer metric in BENCHMARK.json order. A
// workload reports 0 for a layer it does not exercise (README.md lists
// which workload fills which metric).
func perLayerNames() []layerName {
	return []layerName{
		{"tensor.matvec_gflops", "GFLOP/s"},
		{"tensor.matmul_gflops", "GFLOP/s"},
		{"model.decode_us_per_token", "us"},
		{"model.decode_gflops", "GFLOP/s"},
		{"model.prefill_ms_per_trial", "ms"},
		{"model.score_ms_per_trial", "ms"},
		{"core.trial_p50_ms", "ms"},
		{"core.trial_p99_ms", "ms"},
		{"core.worker_util", "fraction"},
		{"core.batch_occupancy", "rows"},
		{"core.classify_ms_per_trial", "ms"},
		{"core.baseline_s", "s"},
		{"core.fired_frac", "fraction"},
		{"faults.arm_us", "us"},
		{"abft.check_ms_per_trial", "ms"},
		{"abft.checks_per_trial", "count"},
		{"abft.false_positives", "count"},
		{"abft.detect_recall", "fraction"},
		{"serve.ttft_p50_ms", "ms"},
		{"serve.ttft_p99_ms", "ms"},
		{"serve.queue_wait_p99_ms", "ms"},
		{"serve.itl_mean_ms", "ms"},
		{"serve.serial_frac", "fraction"},
		{"obs.spans_per_request", "count"},
		{"obs.trace_overhead_frac", "fraction"},
		{"fabric.lease_rtt_p50_ms", "ms"},
		{"fabric.lease_rtt_p99_ms", "ms"},
		{"fabric.results_rtt_p99_ms", "ms"},
		{"fabric.calls_per_trial", "count"},
		{"fabric.useful_frac", "fraction"},
		{"fabric.reissued_leases", "count"},
		{"fabric.tail_s", "s"},
		{"bench.gen_lag_p99_ms", "ms"},
	}
}

// endToEndNames lists every end-to-end metric in BENCHMARK.json order.
func endToEndNames() []layerName {
	return []layerName{
		{"setup_s", "s"},
		{"trials_per_s", "trials/s"},
		{"latency_p50_ms", "ms"},
		{"latency_p99_ms", "ms"},
		{"slo_attain", "fraction"},
		{"peak_rss_mb", "MiB"},
	}
}
