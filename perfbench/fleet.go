package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/trace"
)

// fleetWorkers is the number of in-process fabric workers; each holds
// one loopback connection to the coordinator.
const fleetWorkers = 2

// handlerBox lets the listener switch to each round's coordinator.
type handlerBox struct{ h http.Handler }

type fleetBench struct {
	seed       uint64
	c          core.Campaign
	url        string
	srv        *http.Server
	served     chan error
	cur        atomic.Pointer[handlerBox]
	transports []*http.Transport
	rounds     []roundResult
	base       *core.Baseline

	// Observations of the window being measured; the workers' span sinks
	// and HTTP round trips run on their own goroutines.
	mu       sync.Mutex
	win      *window                    //guarded by mu
	tr       *tracer                    //guarded by mu: nil outside the traced window
	rtts     map[string][]time.Duration //guarded by mu: by API path
	calls    int                        //guarded by mu
	trialObs []obs.Span                 //guarded by mu: traced trial spans
	svc      []time.Duration            //guarded by mu: trial service times

	tails               []float64 // per traced round: first to last Worker.Run return, s
	done, dups, reissue int
	fired, traced       int
}

func newFleetBench(ctx context.Context, seed uint64) (bench, error) {
	m, err := profileModel()
	if err != nil {
		return nil, err
	}
	suite, err := decodeComp.suite()
	if err != nil {
		return nil, err
	}
	b := &fleetBench{
		seed:   seed,
		c:      core.New(m, suite, decodeComp.fault, roundTrials(decodeComp.rate, 0), roundSeed(seed, 0), decodeComp.opts...),
		served: make(chan error, 1),
	}
	// The single-process reference run of the correctness gate reuses
	// this baseline; the fleet's workers and coordinator evaluate their
	// own, as separate processes would.
	b.base = b.c.EvalBaseline()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b.url = "http://" + ln.Addr().String()
	b.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hb := b.cur.Load(); hb != nil {
			hb.h.ServeHTTP(w, r)
			return
		}
		http.Error(w, "no campaign", http.StatusServiceUnavailable)
	})}
	go func() { b.served <- b.srv.Serve(ln) }()
	for i := 0; i < fleetWorkers; i++ {
		b.transports = append(b.transports, &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1})
	}
	return b, nil
}

func (b *fleetBench) close() {
	b.srv.Close()
	<-b.served
	for _, t := range b.transports {
		t.CloseIdleConnections()
	}
}

// timingRT times every call a worker makes to the coordinator.
type timingRT struct {
	b    *fleetBench
	base http.RoundTripper
}

func (t timingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	t.b.observeCall(req, start, time.Now())
	return resp, err
}

func (b *fleetBench) observeCall(req *http.Request, start, end time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tr == nil {
		return
	}
	path := req.URL.Path
	b.rtts[path] = append(b.rtts[path], end.Sub(start))
	b.calls++
	// A results submission carries its lease's trace context.
	trace, parent := b.tr.newTrace(), ""
	if sc, ok := obs.ParseTraceparent(req.Header.Get("traceparent")); ok {
		trace, parent = sc.Trace, sc.Span
	}
	b.tr.add(trace, parent, "fabric."+path[strings.LastIndex(path, "/")+1:], start, end)
}

// workerSpan receives every span a worker's recorder produces. A trial
// span's duration is the trial's service time.
func (b *fleetBench) workerSpan(sp obs.Span) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if sp.Name == "trial" {
		d := time.Duration(sp.Seconds * 1e9)
		b.svc = append(b.svc, d)
		if d <= decodeComp.limit {
			b.win.within++
		}
		if b.tr != nil {
			b.trialObs = append(b.trialObs, sp)
		}
	}
	b.tr.addObs(sp)
	return nil
}

func (b *fleetBench) measure(ctx context.Context, seconds float64, part int, tr *tracer) (*window, error) {
	w := &window{}
	b.mu.Lock()
	b.win, b.tr, b.rtts, b.svc = w, tr, make(map[string][]time.Duration), b.svc[:0]
	b.mu.Unlock()
	start := time.Now()
	for w.ops == 0 || time.Since(start).Seconds() < seconds {
		// The rounds are campaign-decode-comp's, trial for trial, so the
		// two workloads differ only in how the trials are run.
		if err := b.round(ctx, len(b.rounds), roundTrials(decodeComp.rate, seconds), w, tr); err != nil {
			return nil, err
		}
	}
	w.wall = time.Since(start)
	w.cost = w.wall.Seconds() / float64(w.ops)
	return w, nil
}

// round runs one campaign on a fresh coordinator and two workers that
// reach it over loopback HTTP.
func (b *fleetBench) round(ctx context.Context, r, trials int, w *window, tr *tracer) error {
	c := b.c
	c.Seed, c.Trials = roundSeed(b.seed, r), trials
	var coRec *obs.Recorder
	if tr != nil {
		coRec = obs.NewRecorder(obs.Config{Service: "coordinator", Sample: 1, Recent: 128,
			Sink: func(sp obs.Span) error { tr.addObs(sp); return nil }})
	}
	roundTrace, roundID := tr.newTrace(), tr.newID()
	rs := time.Now()
	co, err := fabric.NewCoordinator(fabric.CoordinatorConfig{Campaign: c, Recorder: coRec})
	if err != nil {
		return err
	}
	b.cur.Store(&handlerBox{co.Handler()})

	ends := make([]time.Time, fleetWorkers)
	errs := make([]error, fleetWorkers)
	var wg sync.WaitGroup
	for i := 0; i < fleetWorkers; i++ {
		wk, err := fabric.NewWorker(fabric.WorkerConfig{
			Campaign: c, Coordinator: b.url, Name: fmt.Sprintf("w%d", i),
			Client: &http.Client{Transport: timingRT{b, b.transports[i]}, Timeout: 30 * time.Second},
			// Every lease is recorded: its trial spans carry the trial
			// service times latency is measured from.
			Recorder: obs.NewRecorder(obs.Config{Service: "worker", Sample: 1, Recent: 128, Sink: b.workerSpan}),
		})
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ws := time.Now()
			errs[i] = wk.Run(ctx)
			ends[i] = time.Now()
			tr.add(roundTrace, roundID, "fabric.Worker.Run", ws, ends[i])
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	res, err := co.Result(ctx)
	if err != nil {
		return err
	}
	re := time.Now()
	tr.record(roundID, roundTrace, "", "fabric.round", rs, re)
	w.lat = append(w.lat, re.Sub(rs))
	w.rates = append(w.rates, float64(len(res.Trials))/re.Sub(rs).Seconds())
	b.rounds = append(b.rounds, roundResult{seed: c.Seed, res: res})
	w.ops += len(res.Trials)
	if tr != nil {
		st := co.Status()
		b.done += st.Done
		b.dups += st.DuplicateTrials
		b.reissue += st.ReissuedLeases
		first, last := ends[0], ends[0]
		for _, e := range ends[1:] {
			if e.Before(first) {
				first = e
			}
			if e.After(last) {
				last = e
			}
		}
		b.tails = append(b.tails, last.Sub(first).Seconds())
		for _, t := range res.Trials {
			if t.Fired {
				b.fired++
			}
		}
		b.traced += len(res.Trials)
	}
	return nil
}

func (b *fleetBench) layers(ctx context.Context, w *window, tr *tracer, out map[string]float64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := float64(b.traced)
	pct := func(path string, p float64) float64 {
		v, _ := tailPercentile(sortedMS(b.rtts[path]), p)
		return v
	}
	out["fabric.lease_rtt_p50_ms"] = pct(fabric.PathLease, 0.5)
	out["fabric.lease_rtt_p99_ms"] = pct(fabric.PathLease, 0.99)
	out["fabric.results_rtt_p99_ms"] = pct(fabric.PathResults, 0.99)
	out["fabric.calls_per_trial"] = ratio(float64(b.calls), n)
	out["fabric.useful_frac"] = ratio(float64(b.done), float64(b.done+b.dups))
	out["fabric.reissued_leases"] = float64(b.reissue)
	var tail float64
	for _, t := range b.tails {
		tail += t
	}
	out["fabric.tail_s"] = ratio(tail, float64(len(b.tails)))
	out["core.fired_frac"] = ratio(float64(b.fired), n)
	out["core.trial_p50_ms"], _ = tailPercentile(sortedMS(b.svc), 0.5)
	out["core.trial_p99_ms"], _ = tailPercentile(sortedMS(b.svc), 0.99)

	// Phase times per trial, from the worker's trial spans.
	phase := make(map[string]float64)
	var tokens float64
	for _, sp := range b.trialObs {
		var dec, perTok float64
		for _, a := range sp.Attrs {
			phase[a.Key] += a.Num
			switch a.Key {
			case string(trace.PhaseDecode) + "_s":
				dec = a.Num
			case string(trace.PhaseDecodeToken) + "_s":
				perTok = a.Num
			}
		}
		if perTok > 0 {
			tokens += dec / perTok
		}
	}
	spans := float64(len(b.trialObs))
	usPerTok := ratio(phase[string(trace.PhaseDecode)+"_s"]*1e6, tokens)
	out["model.decode_us_per_token"] = usPerTok
	out["model.prefill_ms_per_trial"] = ratio(phase[string(trace.PhasePrefill)+"_s"]*1e3, spans)
	out["core.classify_ms_per_trial"] = ratio(phase[string(trace.PhaseClassify)+"_s"]*1e3, spans)
	pos := meanPromptLen(b.c.Suite) + ratio(tokens, 2*spans)
	out["model.decode_gflops"] = ratio(decodeFlops(b.c.Model.Cfg, pos)/1e3, usPerTok)
	return nil
}

// verify runs the first round's campaign in a single process and
// requires the fleet's merged result to equal it trial for trial.
func (b *fleetBench) verify(ctx context.Context) (gate, error) {
	r := b.rounds[0]
	g := gate{digest: trialDigest(r.res.Trials)}
	c := b.c
	c.Seed, c.Trials = r.seed, len(r.res.Trials)
	single, err := core.NewRunner(c, core.WithBaseline(b.base)).Run(ctx)
	if err != nil {
		return g, err
	}
	for i := range single.Trials {
		g.checked++
		if !sameTrial(single.Trials[i], r.res.Trials[i]) {
			g.mismatched++
		}
	}
	if trialDigest(single.Trials) != g.digest && g.mismatched == 0 {
		g.mismatched++
	}
	return g, nil
}
