package fabric

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/version"
)

// Trial-index lease state machine. Every index is pending (available to
// lease), leased (handed to a worker, unsubmitted), or done (result
// merged). pending → leased on grant; leased → done on submission;
// leased → pending when the lease's TTL elapses without contact from
// its worker (the reissue path). done is terminal: later submissions of
// the same index are deduplicated, never re-merged.
type trialState uint8

const (
	statePending trialState = iota
	stateLeased
	stateDone
)

// leaseRec is one live lease. indices keeps the granted order; entries
// already submitted are skipped via the coordinator's state array.
type leaseRec struct {
	id      uint64
	worker  string
	indices []int
	expires time.Time
	// granted / ctx are observability-only: when the coordinator traces,
	// every lease gets a span context (child of the campaign root) that
	// rides the lease response's traceparent header to the worker, and a
	// "lease" span covering granted→retire/expire.
	granted time.Time
	ctx     obs.SpanContext
}

// workerRec tracks one fleet member.
type workerRec struct {
	name     string
	joined   time.Time
	lastSeen time.Time
	trials   int
	leases   map[uint64]*leaseRec
}

// CoordinatorConfig configures a campaign coordinator.
type CoordinatorConfig struct {
	// Campaign is the full campaign definition. The coordinator never
	// executes trials itself; it needs the definition for the
	// fingerprint handshake and the final baseline evaluation.
	Campaign core.Campaign
	// LeaseTTL is how long a lease survives without a result submission
	// from its worker (default 30s). Submissions renew all of the
	// worker's leases.
	LeaseTTL time.Duration
	// LeaseTrials is the maximum trial indices per lease (default 16).
	LeaseTrials int
	// CheckpointPath, when set, persists completed trials (the standard
	// core.Checkpoint format) periodically and at campaign completion; a
	// restarted coordinator pointed at the same path resumes with the
	// completed trials merged and every other index leasable again.
	CheckpointPath string
	// CheckpointEvery is the number of accepted trials between periodic
	// checkpoint writes (default 256).
	CheckpointEvery int
	// Clock overrides wall-clock reads (test seam; default time.Now).
	Clock func() time.Time
	// Recorder, when non-nil and enabled, records coordinator-side spans
	// (campaign root + per-lease lifecycle) whose trace context is
	// propagated to workers over the lease response's traceparent header.
	Recorder *obs.Recorder
	// ScrapeEvery is the worker /metrics fan-in interval used by
	// RunScrapes (default 2s).
	ScrapeEvery time.Duration
	// ScrapeClient overrides the fan-in's HTTP client (test seam).
	ScrapeClient *http.Client
}

// Coordinator owns a campaign's trial-index space and merges worker
// results. All exported methods and HTTP handlers are safe for
// concurrent use.
type Coordinator struct {
	cfg CoordinatorConfig
	fp  core.Fingerprint
	now func() time.Time

	mu         sync.Mutex
	state      []trialState          //llmfi:guardedby mu
	trials     []core.Trial          //llmfi:guardedby mu
	done       int                   //llmfi:guardedby mu
	leases     map[uint64]*leaseRec  //llmfi:guardedby mu
	workers    map[string]*workerRec //llmfi:guardedby mu
	nextLease  uint64                //llmfi:guardedby mu
	nextWorker int                   //llmfi:guardedby mu
	reissued   int                   //llmfi:guardedby mu
	duplicates int                   //llmfi:guardedby mu
	scan       int                   //llmfi:guardedby mu — lowest possibly-pending index (lease-grant cursor)
	start      time.Time             //llmfi:guardedby mu
	sinceCkpt  int                   //llmfi:guardedby mu
	finished   chan struct{}         // closed under mu, received lock-free (Finished)
	restored   int                   //llmfi:guardedby mu

	fan      *obs.FanIn
	root     obs.SpanContext // campaign trace root (zero when untraced)
	stitched int             //llmfi:guardedby mu — result submissions carrying lease trace context
}

// NewCoordinator validates the campaign, restores a checkpoint when one
// exists at CheckpointPath, and returns a coordinator ready to serve.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Campaign.Trials <= 0 {
		return nil, core.ErrNoTrials
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.LeaseTrials <= 0 {
		cfg.LeaseTrials = 16
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 256
	}
	co := &Coordinator{
		cfg:      cfg,
		fp:       cfg.Campaign.Fingerprint(),
		now:      cfg.Clock,
		state:    make([]trialState, cfg.Campaign.Trials),
		trials:   make([]core.Trial, cfg.Campaign.Trials),
		leases:   map[uint64]*leaseRec{},
		workers:  map[string]*workerRec{},
		finished: make(chan struct{}),
	}
	if co.now == nil {
		co.now = time.Now
	}
	if cfg.ScrapeEvery <= 0 {
		cfg.ScrapeEvery = 2 * time.Second
		co.cfg.ScrapeEvery = cfg.ScrapeEvery
	}
	co.fan = obs.NewFanIn(cfg.ScrapeClient)
	if cfg.Recorder.SampleRoot() {
		// The whole distributed campaign is one trace: the root span
		// spans coordinator start → last merge, and every lease is a
		// child whose context workers continue.
		co.root = cfg.Recorder.StartTrace()
	}
	co.start = co.now()
	if cfg.CheckpointPath != "" {
		if err := co.restore(cfg.CheckpointPath); err != nil {
			return nil, err
		}
	}
	if co.done == len(co.state) {
		close(co.finished)
	}
	return co, nil
}

// restore merges a prior coordinator's checkpoint: completed trials
// become done, everything else — including indices that were leased
// when the old coordinator died — returns to the pool, so outstanding
// work resumes under fresh leases. A missing file is a fresh campaign.
func (co *Coordinator) restore(path string) error {
	ck, err := core.LoadCheckpoint(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	if err := ck.Matches(co.cfg.Campaign); err != nil {
		return err
	}
	// Only NewCoordinator calls restore, before the coordinator is
	// published, so the lock is uncontended — but holding it keeps the
	// guardedby invariant uniformly true instead of special-cased.
	co.mu.Lock()
	defer co.mu.Unlock()
	for i, t := range ck.Indices {
		if t < 0 || t >= len(co.state) || co.state[t] == stateDone {
			continue
		}
		co.state[t] = stateDone
		co.trials[t] = ck.Trials[i]
		co.done++
	}
	co.restored = co.done
	return nil
}

// Restored returns the number of trials recovered from the checkpoint.
func (co *Coordinator) Restored() int {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.restored
}

// Handler returns the coordinator's HTTP surface: the versioned fabric
// API (join/lease/results/status), fleet Prometheus metrics at the
// conventional /metrics, and a /healthz liveness probe.
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathJoin, co.handleJoin)
	mux.HandleFunc(PathLease, co.handleLease)
	mux.HandleFunc(PathResults, co.handleResults)
	mux.HandleFunc(PathStatus, co.handleStatus)
	mux.HandleFunc(report.APIVersion+"/", func(w http.ResponseWriter, r *http.Request) {
		report.WriteAPIError(w, http.StatusNotFound, "not_found", "unknown API path "+r.URL.Path)
	})
	mux.HandleFunc("/metrics", obs.MetricsHandler(co.writeMetrics))
	mux.HandleFunc("/healthz", co.handleHealthz)
	mux.HandleFunc("/debug/fleet", obs.DashboardHandler(co.dashboardData))
	return mux
}

// FanIn exposes the coordinator's worker-metrics aggregator.
func (co *Coordinator) FanIn() *obs.FanIn { return co.fan }

// RunScrapes runs the worker /metrics fan-in loop until ctx is done.
// Start it in its own goroutine next to the HTTP server.
func (co *Coordinator) RunScrapes(ctx context.Context) {
	co.fan.Run(ctx, co.cfg.ScrapeEvery)
}

// recordLeaseSpanLocked emits the lease-lifecycle span (grant →
// retire/expire). Callers hold co.mu; the recorder has its own lock.
func (co *Coordinator) recordLeaseSpanLocked(l *leaseRec, now time.Time, outcome string) {
	if !l.ctx.Valid() {
		return
	}
	co.cfg.Recorder.Record(obs.NewSpan(l.ctx, co.root.Span, "lease",
		l.granted, now.Sub(l.granted),
		obs.Str("worker", l.worker),
		obs.Int("trials", int64(len(l.indices))),
		obs.Str("outcome", outcome)))
}

// Result blocks until every trial is merged (or ctx is cancelled),
// evaluates the fault-free baseline, and returns the completed Result —
// bit-identical in every exported field to a single-process run of the
// same campaign.
func (co *Coordinator) Result(ctx context.Context) (*core.Result, error) {
	select {
	case <-co.finished:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	baseline := co.cfg.Campaign.ResultBaseline()
	co.mu.Lock()
	trials := append([]core.Trial(nil), co.trials...)
	co.mu.Unlock()
	return &core.Result{Campaign: co.cfg.Campaign, Baseline: baseline, Trials: trials}, nil
}

// Done reports merged-trial progress.
func (co *Coordinator) Done() (done, total int) {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.done, len(co.state)
}

// Finished returns a channel closed when every trial is merged.
func (co *Coordinator) Finished() <-chan struct{} { return co.finished }

// sweepLocked expires leases whose TTL elapsed: their unsubmitted
// indices return to the pool and count one reissue per lease that
// actually surrendered work. Callers hold co.mu.
func (co *Coordinator) sweepLocked(now time.Time) {
	for id, l := range co.leases {
		if now.Before(l.expires) {
			continue
		}
		returned := 0
		for _, t := range l.indices {
			if co.state[t] == stateLeased {
				co.state[t] = statePending
				if t < co.scan {
					co.scan = t
				}
				returned++
			}
		}
		co.recordLeaseSpanLocked(l, now, "expired")
		co.dropLeaseLocked(id, l)
		if returned > 0 {
			co.reissued++
		}
	}
}

// dropLeaseLocked removes a lease from the registry and its worker.
func (co *Coordinator) dropLeaseLocked(id uint64, l *leaseRec) {
	delete(co.leases, id)
	if w := co.workers[l.worker]; w != nil {
		delete(w.leases, id)
	}
}

// grantLocked builds a lease of up to max pending indices for worker w,
// or nil when none are pending. Callers hold co.mu.
func (co *Coordinator) grantLocked(w *workerRec, max int, now time.Time) *leaseRec {
	var indices []int
	for t := co.scan; t < len(co.state) && len(indices) < max; t++ {
		if co.state[t] == statePending {
			indices = append(indices, t)
		} else if len(indices) == 0 {
			co.scan = t + 1
		}
	}
	if len(indices) == 0 {
		return nil
	}
	for _, t := range indices {
		co.state[t] = stateLeased
	}
	co.nextLease++
	l := &leaseRec{
		id:      co.nextLease,
		worker:  w.name,
		indices: indices,
		expires: now.Add(co.cfg.LeaseTTL),
		granted: now,
	}
	if co.root.Valid() {
		l.ctx = co.cfg.Recorder.Child(co.root)
	}
	co.leases[l.id] = l
	w.leases[l.id] = l
	return l
}

// touchLocked marks worker contact and renews its leases — any request
// from a worker proves it alive, so its in-flight work keeps its grant.
func (co *Coordinator) touchLocked(w *workerRec, now time.Time) {
	w.lastSeen = now
	for _, l := range w.leases {
		l.expires = now.Add(co.cfg.LeaseTTL)
	}
}

func (co *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if !co.decode(w, r, &req) {
		return
	}
	if req.Schema != SchemaVersion {
		report.WriteAPIError(w, http.StatusConflict, "schema_mismatch",
			fmt.Sprintf("worker speaks wire schema %d, coordinator %d", req.Schema, SchemaVersion))
		return
	}
	if req.Version != version.Version {
		report.WriteAPIError(w, http.StatusConflict, "version_mismatch",
			fmt.Sprintf("worker binary version %q, coordinator %q — fleets must run one build", req.Version, version.Version))
		return
	}
	if req.Fingerprint != co.fp {
		report.WriteAPIError(w, http.StatusConflict, "fingerprint_mismatch",
			fmt.Sprintf("worker campaign %s/%s/%s trials=%d seed=%d does not match coordinator %s/%s/%s trials=%d seed=%d",
				req.Fingerprint.Model, req.Fingerprint.Suite, req.Fingerprint.Fault, req.Fingerprint.Trials, req.Fingerprint.Seed,
				co.fp.Model, co.fp.Suite, co.fp.Fault, co.fp.Trials, co.fp.Seed))
		return
	}

	co.mu.Lock()
	now := co.now()
	name := req.Worker
	if name == "" {
		co.nextWorker++
		name = fmt.Sprintf("w%d", co.nextWorker)
	}
	wr := co.workers[name]
	if wr == nil {
		wr = &workerRec{name: name, joined: now, leases: map[uint64]*leaseRec{}}
		co.workers[name] = wr
	}
	co.touchLocked(wr, now)
	resp := JoinResponse{
		Schema:      SchemaVersion,
		Worker:      name,
		Trials:      len(co.state),
		LeaseTTLMs:  co.cfg.LeaseTTL.Milliseconds(),
		LeaseTrials: co.cfg.LeaseTrials,
	}
	co.mu.Unlock()
	// Fan-in registration rides the join: a worker advertising an
	// observability address gets its /metrics scraped from now on.
	co.fan.Register(name, req.HTTPAddr)
	writeJSON(w, resp)
}

func (co *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !co.decode(w, r, &req) {
		return
	}
	if !co.checkSchema(w, req.Schema) {
		return
	}
	co.mu.Lock()
	now := co.now()
	co.sweepLocked(now)
	wr := co.workers[req.Worker]
	if wr == nil {
		co.mu.Unlock()
		report.WriteAPIError(w, http.StatusNotFound, "unknown_worker",
			fmt.Sprintf("worker %q has not joined (coordinator restart? re-join)", req.Worker))
		return
	}
	co.touchLocked(wr, now)
	max := co.cfg.LeaseTrials
	if req.Max > 0 && req.Max < max {
		max = req.Max
	}
	resp := LeaseResponse{Schema: SchemaVersion}
	var leaseCtx obs.SpanContext
	switch l := co.grantLocked(wr, max, now); {
	case l != nil:
		resp.Lease = &Lease{
			ID:      l.id,
			Indices: append([]int(nil), l.indices...),
			TTLMs:   co.cfg.LeaseTTL.Milliseconds(),
		}
		leaseCtx = l.ctx
	case co.done == len(co.state):
		resp.Done = true
	default:
		resp.Wait = true
	}
	co.mu.Unlock()
	if leaseCtx.Valid() {
		// The lease's trace context rides a traceparent header: workers
		// that trace continue it (the coordinator/worker stitch), others
		// ignore it — the JSON payload is unchanged either way.
		w.Header().Set(obs.TraceparentHeader, leaseCtx.Traceparent())
	}
	writeJSON(w, resp)
}

func (co *Coordinator) handleResults(w http.ResponseWriter, r *http.Request) {
	var req ResultsRequest
	if !co.decode(w, r, &req) {
		return
	}
	if !co.checkSchema(w, req.Schema) {
		return
	}
	// Trace context is advisory: a malformed, missing, or foreign
	// traceparent header is ignored, never an error. A valid one in the
	// coordinator's own trace counts as a stitched submission and is
	// echoed back so the worker sees the round-trip.
	incoming, hasTP := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
	if hasTP {
		w.Header().Set(obs.TraceparentHeader, incoming.Traceparent())
	}
	// Validate against the immutable campaign config, not co.state: the
	// index space is fixed at construction, and this keeps the
	// pre-lock validation off the mu-guarded fields.
	total := co.cfg.Campaign.Trials
	for _, tr := range req.Trials {
		if tr.Index < 0 || tr.Index >= total {
			report.WriteAPIError(w, http.StatusBadRequest, "index_out_of_range",
				fmt.Sprintf("trial index %d outside [0, %d)", tr.Index, total))
			return
		}
	}

	co.mu.Lock()
	now := co.now()
	co.sweepLocked(now)
	if hasTP && incoming.Trace == co.root.Trace && co.root.Valid() {
		co.stitched++
	}
	// Results are merged even from workers the coordinator no longer
	// knows (restart) or whose lease expired (slow worker racing its
	// reissue): correctness is index-keyed, and a finished trial is a
	// finished trial.
	if wr := co.workers[req.Worker]; wr != nil {
		co.touchLocked(wr, now)
	}
	resp := ResultsResponse{Schema: SchemaVersion}
	for _, tr := range req.Trials {
		if co.state[tr.Index] == stateDone {
			co.duplicates++
			resp.Duplicates++
			continue
		}
		co.state[tr.Index] = stateDone
		co.trials[tr.Index] = tr.Trial
		co.done++
		resp.Accepted++
		if wr := co.workers[req.Worker]; wr != nil {
			wr.trials++
		}
	}
	co.retireLeasesLocked(now)
	var ckptErr error
	co.sinceCkpt += resp.Accepted
	allDone := co.done == len(co.state)
	if co.cfg.CheckpointPath != "" && (co.sinceCkpt >= co.cfg.CheckpointEvery || allDone) && resp.Accepted > 0 {
		ckptErr = co.checkpointLocked()
		co.sinceCkpt = 0
	}
	if allDone {
		select {
		case <-co.finished:
		default:
			close(co.finished)
			// The campaign root span seals once, on the submission that
			// merged the last trial.
			if co.root.Valid() {
				co.cfg.Recorder.Record(obs.NewSpan(co.root, "", "campaign",
					co.start, now.Sub(co.start),
					obs.Int("trials", int64(len(co.state))),
					obs.Int("workers", int64(len(co.workers))),
					obs.Int("stitched_results", int64(co.stitched))))
			}
		}
		resp.Done = true
	}
	co.mu.Unlock()

	if ckptErr != nil {
		report.WriteAPIError(w, http.StatusInternalServerError, "checkpoint_failed", ckptErr.Error())
		return
	}
	writeJSON(w, resp)
}

// retireLeasesLocked drops leases whose every index is done, so the
// status report's outstanding counts reflect real in-flight work.
func (co *Coordinator) retireLeasesLocked(now time.Time) {
	for id, l := range co.leases {
		live := false
		for _, t := range l.indices {
			if co.state[t] == stateLeased {
				live = true
				break
			}
		}
		if !live {
			co.recordLeaseSpanLocked(l, now, "completed")
			co.dropLeaseLocked(id, l)
		}
	}
}

// checkpointLocked persists the done trials in the standard
// core.Checkpoint format (same fingerprint guard, atomic write).
func (co *Coordinator) checkpointLocked() error {
	ck := &core.Checkpoint{Fingerprint: co.fp}
	for t, st := range co.state {
		if st == stateDone {
			ck.Indices = append(ck.Indices, t)
			ck.Trials = append(ck.Trials, co.trials[t])
		}
	}
	return ck.Save(co.cfg.CheckpointPath)
}

// Checkpoint forces a checkpoint write (no-op without a path).
func (co *Coordinator) Checkpoint() error {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.cfg.CheckpointPath == "" {
		return nil
	}
	return co.checkpointLocked()
}

func (co *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		report.WriteAPIError(w, http.StatusMethodNotAllowed, "method_not_allowed", r.Method+" not allowed; use GET")
		return
	}
	writeJSON(w, co.Status())
}

// Status renders the fleet-level progress snapshot.
func (co *Coordinator) Status() StatusResponse {
	co.mu.Lock()
	defer co.mu.Unlock()
	now := co.now()
	co.sweepLocked(now)
	s := StatusResponse{
		Schema:          SchemaVersion,
		Version:         version.Version,
		Fingerprint:     co.fp,
		Trials:          len(co.state),
		Done:            co.done,
		ReissuedLeases:  co.reissued,
		DuplicateTrials: co.duplicates,
		StitchedResults: co.stitched,
		Finished:        co.done == len(co.state),
		ElapsedSec:      now.Sub(co.start).Seconds(),
	}
	if executed := co.done - co.restored; executed > 0 && s.ElapsedSec > 0 {
		s.TrialsPerSec = float64(executed) / s.ElapsedSec
	}
	for _, l := range co.leases {
		s.OutstandingLeases++
		for _, t := range l.indices {
			if co.state[t] == stateLeased {
				s.OutstandingTrials++
			}
		}
	}
	for _, name := range sortedWorkers(co.workers) {
		wr := co.workers[name]
		ws := WorkerStatus{
			Worker:      wr.name,
			Trials:      wr.trials,
			LastSeenSec: now.Sub(wr.lastSeen).Seconds(),
		}
		if up := now.Sub(wr.joined).Seconds(); up > 0 && wr.trials > 0 {
			ws.TrialsPerSec = float64(wr.trials) / up
		}
		for _, l := range wr.leases {
			ws.OutstandingLeases++
			for _, t := range l.indices {
				if co.state[t] == stateLeased {
					ws.OutstandingTrials++
				}
			}
		}
		s.Workers = append(s.Workers, ws)
	}
	return s
}

// writeMetrics renders the /metrics body: build identity (labelled with
// the wire schema), the coordinator's own fabric families, then the
// aggregated worker series (llmfi_fleet_*).
func (co *Coordinator) writeMetrics(w io.Writer) error {
	p := obs.NewMetricsWriter(w)
	p.BuildInfo(version.Version, SchemaVersion)
	WriteFleetMetricsText(p, co.Status())
	co.fan.WriteText(p)
	return p.Flush()
}

// dashboardData gathers the live fleet view for /debug/fleet.
func (co *Coordinator) dashboardData() obs.DashboardData {
	s := co.Status()
	fleet := obs.DashboardSection{Title: "campaign", Rows: [][2]string{
		{"trials", fmt.Sprintf("%d / %d done", s.Done, s.Trials)},
		{"outstanding", fmt.Sprintf("%d trials in %d leases", s.OutstandingTrials, s.OutstandingLeases)},
		{"reissued leases", fmt.Sprintf("%d", s.ReissuedLeases)},
		{"duplicate trials", fmt.Sprintf("%d", s.DuplicateTrials)},
		{"stitched results", fmt.Sprintf("%d", s.StitchedResults)},
		{"throughput", fmt.Sprintf("%.1f trials/s", s.TrialsPerSec)},
	}}
	workers := obs.DashboardSection{Title: "workers"}
	for _, ws := range s.Workers {
		workers.Rows = append(workers.Rows, [2]string{
			ws.Worker,
			fmt.Sprintf("%d trials, %.1f/s, %d outstanding, seen %.1fs ago",
				ws.Trials, ws.TrialsPerSec, ws.OutstandingTrials, ws.LastSeenSec),
		})
	}
	var metrics strings.Builder
	_ = co.writeMetrics(&metrics)
	return obs.DashboardData{
		Title:    "llmfi fleet",
		Version:  version.Version,
		Sections: []obs.DashboardSection{fleet, workers},
		Metrics:  metrics.String(),
		Spans:    co.cfg.Recorder.Recent(32),
	}
}

func (co *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	done, total := co.Done()
	writeJSON(w, struct {
		Status   string `json:"status"`
		Done     int    `json:"done"`
		Total    int    `json:"total"`
		Finished bool   `json:"finished"`
	}{Status: "ok", Done: done, Total: total, Finished: done == total})
}

// decode parses a JSON request body, writing the error envelope (and
// returning false) on malformed input or a non-POST method.
func (co *Coordinator) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		report.WriteAPIError(w, http.StatusMethodNotAllowed, "method_not_allowed", r.Method+" not allowed; use POST")
		return false
	}
	if err := report.DecodeJSON(r, v); err != nil {
		report.WriteAPIError(w, http.StatusBadRequest, "bad_request", err.Error())
		return false
	}
	return true
}

// checkSchema rejects requests speaking a different wire schema.
func (co *Coordinator) checkSchema(w http.ResponseWriter, schema int) bool {
	if schema != SchemaVersion {
		report.WriteAPIError(w, http.StatusConflict, "schema_mismatch",
			fmt.Sprintf("request speaks wire schema %d, coordinator %d", schema, SchemaVersion))
		return false
	}
	return true
}

// sortedWorkers returns the worker names in deterministic order.
func sortedWorkers(m map[string]*workerRec) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sortStrings(names)
	return names
}
