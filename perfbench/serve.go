package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/mitigate"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/prng"
	"repro/internal/serve"
	"repro/internal/tasks"
	"repro/internal/token"
)

// The serve-faults load, fixed once on the reference machine (2-core
// Xeon, README.md) and not derived from any run: the offered rate is
// about half the engine's measured capacity, and the latency limit is
// what slo_attain counts against.
const (
	serveRate  = 30.0                   // requests per second
	serveLimit = 100 * time.Millisecond // due time to Submit return
	serveWidth = 8
	// serveSample is the span-sampling stride llmfi -serve uses by
	// default: every 16th request is traced.
	serveSample = 16
)

// servePromptLens are the prompt lengths the request mix draws from,
// servePerLen prompts of each.
var servePromptLens = []int{16, 48, 120}

const servePerLen = 8

type serveItem struct {
	prompt, baseline []int
	maxNew           int
}

// arrival is one scheduled request: when it is due after the window
// opens, which prompt it carries, and its fault-sampling seed.
type arrival struct {
	at   time.Duration
	item int
	seed uint64
}

// schedule draws window part's arrivals from the workload seed: a
// Poisson process of rate serveRate conditioned on exactly n arrivals in
// the window (n uniform times, sorted), so every run offers the same
// load.
func schedule(seed uint64, part, n int, seconds float64, items int) []arrival {
	src := prng.New(seed).Split(uint64(1000 + part))
	ats := make([]float64, n)
	for i := range ats {
		ats[i] = src.Float64() * seconds
	}
	sort.Float64s(ats)
	out := make([]arrival, n)
	for i := range out {
		out[i] = arrival{at: time.Duration(ats[i] * 1e9), item: src.Intn(items), seed: uint64(part)<<32 | uint64(i)}
	}
	return out
}

type reqRecord struct {
	arrival
	key     respKey
	surface string
	err     error
}

// runningEngine is a serve.Engine with its scheduler goroutine.
type runningEngine struct {
	*serve.Engine
	cancel context.CancelFunc
	done   chan error
}

func startEngine(cfg serve.Config) (*runningEngine, error) {
	e, err := serve.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	re := &runningEngine{Engine: e, cancel: cancel, done: make(chan error, 1)}
	go func() { re.done <- e.Run(ctx) }()
	return re, nil
}

// stop drains the engine and waits for its scheduler to return.
func (re *runningEngine) stop() error {
	re.cancel()
	return <-re.done
}

type serveBench struct {
	seed  uint64
	m     *model.Model
	vocab *token.Vocab
	pool  []serveItem
	eng   *runningEngine
	parts [][]reqRecord

	// The traced window's observations.
	mu     sync.Mutex
	prod   []obs.Span //guarded by mu: spans the engine's recorder produced
	lags   []time.Duration
	before serve.MetricsSnapshot
	after  serve.MetricsSnapshot
}

func newServeBench(ctx context.Context, seed uint64) (bench, error) {
	m, err := profileModel()
	if err != nil {
		return nil, err
	}
	b := &serveBench{seed: seed, m: m, vocab: tasks.GeneralVocab()}
	for _, n := range servePromptLens {
		suite := tasks.NewSelfRefSuite(fmt.Sprintf("serve%d", n), datasetSeed, servePerLen, n-1, 32, []metrics.Kind{metrics.KindBLEU})
		for j, inst := range suite.Instances {
			// max_new is spread evenly over 8..32 within each length, so
			// the pool's total work is the same for every seed.
			maxNew := 8 + j*24/(servePerLen-1)
			b.pool = append(b.pool, serveItem{
				prompt:   inst.Prompt,
				maxNew:   maxNew,
				baseline: gen.Generate(m, inst.Prompt, gen.Defaults(maxNew)).Tokens,
			})
		}
	}
	b.eng, err = startEngine(b.config(obs.NewRecorder(obs.Config{Service: "serve", Sample: serveSample, Recent: 128})))
	if err != nil {
		return nil, err
	}
	return b, nil
}

// config is the engine configuration llmfi -serve builds for
// -inject -fault 1bit-comp -surfaces all -abft.
func (b *serveBench) config(rec *obs.Recorder) serve.Config {
	return serve.Config{
		Model: b.m, Vocab: b.vocab, Width: serveWidth, SLO: serveLimit, Recorder: rec,
		Inject: &serve.InjectConfig{
			Fault: faults.Comp1Bit, Surfaces: faults.Surfaces, Seed: b.seed,
			ABFT: &serve.ABFTConfig{Policy: mitigate.PolicyDetect},
		},
	}
}

func (b *serveBench) close() {
	if b.eng != nil {
		b.eng.stop()
	}
}

func (b *serveBench) request(a arrival) serve.Request {
	it := b.pool[a.item]
	return serve.Request{
		ID: fmt.Sprintf("r%x", a.seed), Prompt: it.prompt, MaxNew: it.maxNew,
		Seed: a.seed, Baseline: it.baseline,
	}
}

// measure offers the window's schedule open loop: one goroutine sleeps
// until each request is due and hands it to a goroutine of its own that
// calls Submit. Latency runs from the due time, so a stall delays every
// request behind it; how late the generator itself ran is kept apart.
func (b *serveBench) measure(ctx context.Context, seconds float64, part int, tr *tracer) (*window, error) {
	if tr != nil {
		// Record every request's spans, in memory, for the traced window.
		if err := b.eng.stop(); err != nil {
			return nil, err
		}
		rec := obs.NewRecorder(obs.Config{Service: "serve", Sample: 1, Recent: 128, Sink: func(sp obs.Span) error {
			b.mu.Lock()
			b.prod = append(b.prod, sp)
			b.mu.Unlock()
			tr.addObs(sp)
			return nil
		}})
		var err error
		if b.eng, err = startEngine(b.config(rec)); err != nil {
			return nil, err
		}
	}
	n := max(1, int(math.Round(serveRate*seconds)))
	sched := schedule(b.seed, part, n, seconds, len(b.pool))
	recs := make([]reqRecord, n)
	lat := make([]time.Duration, n)
	ends := make([]time.Time, n)
	lags := make([]time.Duration, n)
	b.before = b.eng.Metrics().Snapshot()

	var wg sync.WaitGroup
	t0 := time.Now().Add(5 * time.Millisecond)
	for i, a := range sched {
		due := t0.Add(a.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lags[i] = time.Since(due)
		wg.Add(1)
		go func(i int, a arrival, due time.Time) {
			defer wg.Done()
			req := b.request(a)
			traceID, rootID, submitID := tr.newTrace(), tr.newID(), tr.newID()
			if tr != nil {
				req.Trace = obs.SpanContext{Trace: traceID, Span: submitID}
			}
			call := time.Now()
			resp := b.eng.Submit(ctx, req)
			end := time.Now()
			tr.record(rootID, traceID, "", "bench.request", due, end)
			tr.record(submitID, traceID, rootID, "serve.Engine.Submit", call, end)
			recs[i] = reqRecord{arrival: a, key: keyOf(resp), surface: resp.Surface, err: resp.Err}
			lat[i], ends[i] = end.Sub(due), end
		}(i, a, due)
	}
	wg.Wait()
	b.after = b.eng.Metrics().Snapshot()
	b.lags = lags
	b.parts = append(b.parts, recs)

	w := &window{ops: n, lat: lat}
	last := t0
	for i, r := range recs {
		ok := r.err == nil
		// A fault that never fired cannot change the output.
		if ok && !r.key.Fired && !slices.Equal(r.key.Tokens, b.pool[r.item].baseline) {
			ok = false
		}
		if !ok {
			w.failed++
		} else if lat[i] <= serveLimit {
			w.within++
		}
		if ends[i].After(last) {
			last = ends[i]
		}
	}
	w.wall = last.Sub(t0)
	w.rates = []float64{float64(n-w.failed) / w.wall.Seconds()}
	w.cost, _ = tailPercentile(sortedMS(lat), 0.5)
	return w, nil
}

func (b *serveBench) layers(ctx context.Context, w *window, tr *tracer, out map[string]float64) error {
	b.mu.Lock()
	prod := append([]obs.Span(nil), b.prod...)
	b.mu.Unlock()
	queue := make(map[string]float64)
	for _, sp := range prod {
		if sp.Name == "queue_wait" {
			queue[sp.Trace] = sp.Seconds * 1e3
		}
	}
	var ttft, qwait []float64
	for _, sp := range prod {
		if sp.Name == "first_token" {
			ttft = append(ttft, sp.Seconds*1e3)
			qwait = append(qwait, queue[sp.Trace]) // 0 when admitted at once
		}
	}
	sort.Float64s(ttft)
	sort.Float64s(qwait)
	out["serve.ttft_p50_ms"], _ = tailPercentile(ttft, 0.5)
	out["serve.ttft_p99_ms"], _ = tailPercentile(ttft, 0.99)
	out["serve.queue_wait_p99_ms"], _ = tailPercentile(qwait, 0.99)
	out["serve.itl_mean_ms"] = ratio((b.after.ITSum-b.before.ITSum)*1e3, float64(b.after.ITCount-b.before.ITCount))

	recs := b.parts[len(b.parts)-1]
	var serial, fired, detected, fp int
	for _, r := range recs {
		if r.surface == faults.SurfaceNorm.String() || r.surface == faults.SurfaceEmbed.String() {
			serial++
		}
		switch {
		case r.key.Fired:
			fired++
			if r.key.Detected > 0 {
				detected++
			}
		case r.key.Detected > 0:
			fp++
		}
	}
	n := float64(len(recs))
	out["serve.serial_frac"] = float64(serial) / n
	out["core.fired_frac"] = float64(fired) / n
	out["abft.detect_recall"] = ratio(float64(detected), float64(fired))
	out["abft.false_positives"] = float64(fp)
	lag, _ := tailPercentile(sortedMS(b.lags), 0.99)
	out["bench.gen_lag_p99_ms"] = lag
	return nil
}

// verify replays a seeded sample of the measured requests one at a time
// through a fresh engine with the same configuration.
func (b *serveBench) verify(ctx context.Context) (gate, error) {
	first := make([]respKey, len(b.parts[0]))
	var all []reqRecord
	for i, r := range b.parts[0] {
		first[i] = r.key
	}
	for _, p := range b.parts {
		all = append(all, p...)
	}
	g := gate{digest: responseDigest(first)}
	eng, err := startEngine(b.config(obs.NewRecorder(obs.Config{Service: "serve", Sample: serveSample, Recent: 128})))
	if err != nil {
		return g, err
	}
	src := prng.New(b.seed ^ 0x5e7e)
	for i := 0; i < replaySample; i++ {
		r := all[src.Intn(len(all))]
		resp := eng.Submit(ctx, b.request(r.arrival))
		g.checked++
		if resp.Err != nil || !sameResponse(keyOf(resp), r.key) {
			g.mismatched++
		}
	}
	return g, eng.stop()
}
