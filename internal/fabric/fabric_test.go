package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/numerics"
	"repro/internal/tasks"
	"repro/internal/version"
)

// testCampaign builds a fresh but identical campaign per call — the
// fleet's reality: every process constructs the definition from its own
// flags, and identity is established by fingerprint, not shared memory.
func testCampaign(t testing.TB) core.Campaign {
	t.Helper()
	vocab := tasks.GeneralVocab()
	cfg := model.StandardConfig("fabric", vocab.Size(), numerics.BF16)
	m := model.MustBuild(model.Spec{Config: cfg, Family: model.QwenS, Seed: 21})
	suite := tasks.NewSelfRefSuite("fab", 3, 2, 16, 6, []metrics.Kind{metrics.KindBLEU})
	return core.New(m, suite, faults.Comp2Bit, 24, 17)
}

// singleProcess runs the campaign in-process — the golden reference the
// distributed merge must match bit for bit.
func singleProcess(t *testing.T) *core.Result {
	t.Helper()
	res, err := testCampaign(t).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func requireGolden(t *testing.T, got, want *core.Result) {
	t.Helper()
	if len(got.Trials) != len(want.Trials) {
		t.Fatalf("trial counts differ: %d vs %d", len(got.Trials), len(want.Trials))
	}
	for i := range want.Trials {
		if !reflect.DeepEqual(got.Trials[i], want.Trials[i]) {
			t.Fatalf("trial %d differs:\nfabric %+v\nsingle %+v", i, got.Trials[i], want.Trials[i])
		}
	}
	for i := range want.Baseline.Instances {
		a, b := &got.Baseline.Instances[i], &want.Baseline.Instances[i]
		if a.Text != b.Text || a.Steps != b.Steps || !reflect.DeepEqual(a.Metrics, b.Metrics) {
			t.Fatalf("baseline instance %d differs:\nfabric %+v\nsingle %+v", i, a, b)
		}
	}
}

// postJSON is a bare-hands fleet client for protocol-level tests.
func postJSON(t *testing.T, url string, req, resp any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hres, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	if hres.StatusCode == http.StatusOK && resp != nil {
		if err := json.NewDecoder(hres.Body).Decode(resp); err != nil {
			t.Fatal(err)
		}
	}
	return hres.StatusCode
}

// TestGoldenEquivalence: a coordinator plus two workers over real HTTP
// must merge to the bit-identical Result of a single-process run.
func TestGoldenEquivalence(t *testing.T) {
	single := singleProcess(t)

	co, err := NewCoordinator(CoordinatorConfig{Campaign: testCampaign(t), LeaseTrials: 5})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wk, err := NewWorker(WorkerConfig{
			Campaign:    testCampaign(t),
			Coordinator: ts.URL,
			Poll:        10 * time.Millisecond,
			SubmitEvery: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = wk.Run(context.Background())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := co.Result(ctx)
	if err != nil {
		t.Fatal(err)
	}
	requireGolden(t, res, single)

	st := co.Status()
	if !st.Finished || st.Done != st.Trials {
		t.Fatalf("status not finished: %+v", st)
	}
	if got := 0; true {
		for _, ws := range st.Workers {
			got += ws.Trials
		}
		if got != st.Trials {
			t.Fatalf("per-worker trials sum %d, want %d", got, st.Trials)
		}
	}
}

// TestKilledWorkerReissue: a worker that takes a lease and dies must not
// stall the campaign — its lease expires, the indices are reissued, and
// the merged Result is still golden.
func TestKilledWorkerReissue(t *testing.T) {
	single := singleProcess(t)

	co, err := NewCoordinator(CoordinatorConfig{
		Campaign:    testCampaign(t),
		LeaseTrials: 6,
		LeaseTTL:    150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()

	// The doomed worker: joins, takes a lease, and is never heard from
	// again (SIGKILL equivalent — no graceful lease return exists).
	var join JoinResponse
	if code := postJSON(t, ts.URL+PathJoin, JoinRequest{
		Schema: SchemaVersion, Version: version.Version,
		Fingerprint: co.cfg.Campaign.Fingerprint(),
	}, &join); code != 200 {
		t.Fatalf("doomed join status %d", code)
	}
	var lease LeaseResponse
	if code := postJSON(t, ts.URL+PathLease, LeaseRequest{Schema: SchemaVersion, Worker: join.Worker}, &lease); code != 200 {
		t.Fatalf("doomed lease status %d", code)
	}
	if lease.Lease == nil || len(lease.Lease.Indices) == 0 {
		t.Fatalf("doomed worker got no lease: %+v", lease)
	}

	wk, err := NewWorker(WorkerConfig{
		Campaign:    testCampaign(t),
		Coordinator: ts.URL,
		Poll:        20 * time.Millisecond,
		SubmitEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := wk.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := co.Result(ctx)
	if err != nil {
		t.Fatal(err)
	}
	requireGolden(t, res, single)

	st := co.Status()
	if st.ReissuedLeases == 0 {
		t.Fatal("no lease was reissued despite the dead worker")
	}
	if st.OutstandingLeases != 0 || st.OutstandingTrials != 0 {
		t.Fatalf("finished campaign has outstanding work: %+v", st)
	}
}

// TestLeaseExpiryReissue drives the lease state machine with a fake
// clock: granted indices return to the pool exactly when the TTL
// elapses, and submissions renew the holder's leases.
func TestLeaseExpiryReissue(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	co, err := NewCoordinator(CoordinatorConfig{
		Campaign:    testCampaign(t),
		LeaseTrials: 4,
		LeaseTTL:    time.Second,
		Clock:       clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()

	joinWorker := func() string {
		var jr JoinResponse
		if code := postJSON(t, ts.URL+PathJoin, JoinRequest{
			Schema: SchemaVersion, Version: version.Version,
			Fingerprint: co.cfg.Campaign.Fingerprint(),
		}, &jr); code != 200 {
			t.Fatalf("join status %d", code)
		}
		return jr.Worker
	}
	lease := func(worker string) LeaseResponse {
		var lr LeaseResponse
		if code := postJSON(t, ts.URL+PathLease, LeaseRequest{Schema: SchemaVersion, Worker: worker}, &lr); code != 200 {
			t.Fatalf("lease status %d", code)
		}
		return lr
	}

	w1, w2 := joinWorker(), joinWorker()
	l1 := lease(w1)
	if l1.Lease == nil {
		t.Fatalf("w1 got no lease: %+v", l1)
	}

	// Within the TTL the indices stay with w1.
	now = now.Add(500 * time.Millisecond)
	l2 := lease(w2)
	if l2.Lease == nil {
		t.Fatal("w2 got no lease of its own")
	}
	for _, a := range l1.Lease.Indices {
		for _, b := range l2.Lease.Indices {
			if a == b {
				t.Fatalf("index %d double-leased before expiry", a)
			}
		}
	}

	// w2's lease request renewed only w2's leases; one more 600ms step
	// pushes w1 past its TTL while w2 stays live.
	now = now.Add(600 * time.Millisecond)
	l3 := lease(w2)
	if l3.Lease == nil {
		t.Fatal("w2 got nothing after w1 expiry")
	}
	if !reflect.DeepEqual(l3.Lease.Indices, l1.Lease.Indices) {
		t.Fatalf("reissued lease %v, want w1's expired indices %v", l3.Lease.Indices, l1.Lease.Indices)
	}
	if st := co.Status(); st.ReissuedLeases != 1 {
		t.Fatalf("ReissuedLeases = %d, want 1", st.ReissuedLeases)
	}
}

// TestDuplicateSubmissionIdempotent: the same trial submitted twice (a
// reissue race) is merged once; the second copy is counted, not applied.
func TestDuplicateSubmissionIdempotent(t *testing.T) {
	single := singleProcess(t)
	co, err := NewCoordinator(CoordinatorConfig{Campaign: testCampaign(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()

	var jr JoinResponse
	postJSON(t, ts.URL+PathJoin, JoinRequest{
		Schema: SchemaVersion, Version: version.Version,
		Fingerprint: co.cfg.Campaign.Fingerprint(),
	}, &jr)

	sub := ResultsRequest{Schema: SchemaVersion, Worker: jr.Worker, Trials: []TrialResult{
		{Index: 3, Trial: single.Trials[3]},
		{Index: 7, Trial: single.Trials[7]},
	}}
	var r1, r2 ResultsResponse
	if code := postJSON(t, ts.URL+PathResults, sub, &r1); code != 200 {
		t.Fatalf("first submission status %d", code)
	}
	if r1.Accepted != 2 || r1.Duplicates != 0 {
		t.Fatalf("first submission: %+v", r1)
	}
	if code := postJSON(t, ts.URL+PathResults, sub, &r2); code != 200 {
		t.Fatalf("second submission status %d", code)
	}
	if r2.Accepted != 0 || r2.Duplicates != 2 {
		t.Fatalf("second submission: %+v", r2)
	}
	if done, _ := co.Done(); done != 2 {
		t.Fatalf("done = %d, want 2", done)
	}

	var bad ResultsResponse
	if code := postJSON(t, ts.URL+PathResults, ResultsRequest{
		Schema: SchemaVersion, Worker: jr.Worker,
		Trials: []TrialResult{{Index: 999}},
	}, &bad); code != http.StatusBadRequest {
		t.Fatalf("out-of-range index status %d, want 400", code)
	}
}

// TestJoinRejection: schema, binary-version, and campaign-fingerprint
// mismatches are all refused with typed 409 envelopes.
func TestJoinRejection(t *testing.T) {
	co, err := NewCoordinator(CoordinatorConfig{Campaign: testCampaign(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()

	fp := co.cfg.Campaign.Fingerprint()
	otherFP := fp
	otherFP.Seed++

	cases := []struct {
		name string
		req  JoinRequest
		code string
	}{
		{"schema", JoinRequest{Schema: SchemaVersion + 1, Version: version.Version, Fingerprint: fp}, "schema_mismatch"},
		{"version", JoinRequest{Schema: SchemaVersion, Version: "v0.0.0-dev", Fingerprint: fp}, "version_mismatch"},
		{"fingerprint", JoinRequest{Schema: SchemaVersion, Version: version.Version, Fingerprint: otherFP}, "fingerprint_mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body, _ := json.Marshal(tc.req)
			hres, err := http.Post(ts.URL+PathJoin, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer hres.Body.Close()
			if hres.StatusCode != http.StatusConflict {
				t.Fatalf("status %d, want 409", hres.StatusCode)
			}
			var env struct {
				Error struct {
					Code string `json:"code"`
				} `json:"error"`
			}
			if err := json.NewDecoder(hres.Body).Decode(&env); err != nil {
				t.Fatal(err)
			}
			if env.Error.Code != tc.code {
				t.Fatalf("error code %q, want %q", env.Error.Code, tc.code)
			}
		})
	}

	// A worker whose campaign fingerprint differs gets a permanent error.
	diverged := testCampaign(t)
	diverged.Seed++
	wk, err := NewWorker(WorkerConfig{Campaign: diverged, Coordinator: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	var re *RemoteError
	if err := wk.Run(context.Background()); !errors.As(err, &re) || re.Code != "fingerprint_mismatch" {
		t.Fatalf("diverged worker err = %v, want fingerprint_mismatch", err)
	}
}

// TestCoordinatorRestartResume: a coordinator killed after a checkpoint
// restores the completed trials, hands out only the remainder, and the
// final merge is golden. A worker known to the dead coordinator rejoins
// transparently.
func TestCoordinatorRestartResume(t *testing.T) {
	single := singleProcess(t)
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")

	coA, err := NewCoordinator(CoordinatorConfig{
		Campaign:        testCampaign(t),
		CheckpointPath:  ckpt,
		CheckpointEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(coA.Handler())

	// Feed the first 10 trials from the golden run, as a worker would.
	var jr JoinResponse
	postJSON(t, tsA.URL+PathJoin, JoinRequest{
		Schema: SchemaVersion, Version: version.Version,
		Fingerprint: coA.cfg.Campaign.Fingerprint(), Worker: "w-test",
	}, &jr)
	var sub []TrialResult
	for i := 0; i < 10; i++ {
		sub = append(sub, TrialResult{Index: i, Trial: single.Trials[i]})
	}
	var rr ResultsResponse
	if code := postJSON(t, tsA.URL+PathResults, ResultsRequest{
		Schema: SchemaVersion, Worker: jr.Worker, Trials: sub,
	}, &rr); code != 200 || rr.Accepted != 10 {
		t.Fatalf("seed submission: status %d, %+v", code, rr)
	}
	if err := coA.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tsA.Close() // the coordinator dies

	coB, err := NewCoordinator(CoordinatorConfig{
		Campaign:       testCampaign(t),
		CheckpointPath: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if coB.Restored() != 10 {
		t.Fatalf("restored %d trials, want 10", coB.Restored())
	}
	tsB := httptest.NewServer(coB.Handler())
	defer tsB.Close()

	// The old worker's identity is gone from the fresh registry; its
	// first lease request is answered unknown_worker and the worker
	// rejoins under the same name before continuing.
	wk, err := NewWorker(WorkerConfig{
		Campaign:    testCampaign(t),
		Coordinator: tsB.URL,
		Name:        "w-test",
		Poll:        10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := wk.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if wk.Executed() != 14 {
		t.Fatalf("restarted fleet executed %d trials, want the 14 not in the checkpoint", wk.Executed())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := coB.Result(ctx)
	if err != nil {
		t.Fatal(err)
	}
	requireGolden(t, res, single)
}

// TestWorkerRejoinAfterRestart exercises the unknown_worker path
// directly: a lease request from an unregistered worker is a 404 with
// the typed code the worker keys its rejoin on.
func TestWorkerRejoinAfterRestart(t *testing.T) {
	co, err := NewCoordinator(CoordinatorConfig{Campaign: testCampaign(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()

	body, _ := json.Marshal(LeaseRequest{Schema: SchemaVersion, Worker: "ghost"})
	hres, err := http.Post(ts.URL+PathLease, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	if hres.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost lease status %d, want 404", hres.StatusCode)
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(hres.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "unknown_worker" {
		t.Fatalf("error code %q, want unknown_worker", env.Error.Code)
	}
}

// TestTrialWireRoundTrip pins the bit-identity of trials crossing the
// wire: real campaign trials (float metrics included) must survive
// JSON encode/decode exactly.
func TestTrialWireRoundTrip(t *testing.T) {
	res := singleProcess(t)
	for i, tr := range res.Trials {
		data, err := json.Marshal(TrialResult{Index: i, Trial: tr})
		if err != nil {
			t.Fatal(err)
		}
		var got TrialResult
		dec := json.NewDecoder(bytes.NewReader(data))
		if err := dec.Decode(&got); err != nil {
			t.Fatal(err)
		}
		if got.Index != i || !reflect.DeepEqual(got.Trial, tr) {
			t.Fatalf("trial %d did not round-trip:\nsent %+v\ngot  %+v", i, tr, got.Trial)
		}
	}
}

// TestFleetMetricsText smoke-tests the Prometheus rendering: all fleet
// families present, worker series labeled, deterministic output.
func TestFleetMetricsText(t *testing.T) {
	s := StatusResponse{
		Schema: SchemaVersion, Trials: 100, Done: 40,
		OutstandingTrials: 12, OutstandingLeases: 3,
		ReissuedLeases: 2, DuplicateTrials: 5,
		ElapsedSec: 2.5, TrialsPerSec: 16,
		Workers: []WorkerStatus{
			{Worker: "w1", Trials: 30, TrialsPerSec: 12, OutstandingTrials: 8, OutstandingLeases: 2, LastSeenSec: 0.5},
			{Worker: "w2", Trials: 10, TrialsPerSec: 4, OutstandingTrials: 4, OutstandingLeases: 1, LastSeenSec: 1.25},
		},
	}
	a, b := fleetText(t, s), fleetText(t, s)
	if a != b {
		t.Fatal("fleet exposition is not deterministic")
	}
	for _, line := range []string{
		"llmfi_fabric_trials_total 100",
		"llmfi_fabric_trials_done 40",
		"llmfi_fabric_trials_outstanding 12",
		"llmfi_fabric_leases_outstanding 3",
		"llmfi_fabric_leases_reissued_total 2",
		"llmfi_fabric_duplicate_trials_total 5",
		"llmfi_fabric_workers 2",
		"llmfi_fabric_trials_per_second 16",
		"llmfi_fabric_finished 0",
		`llmfi_fabric_worker_trials{worker="w1"} 30`,
		`llmfi_fabric_worker_trials_per_second{worker="w2"} 4`,
		`llmfi_fabric_worker_last_seen_seconds{worker="w2"} 1.25`,
	} {
		if !strings.Contains(a, line+"\n") {
			t.Errorf("fleet exposition missing %q", line)
		}
	}
}
