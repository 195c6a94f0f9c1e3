package service

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dsmphase/internal/faults"
	"dsmphase/internal/harness"
)

// victimShard returns the shard of `of` holding the request's plan
// cell 0 — guaranteed non-empty, so dooming it injures something.
func victimShard(t *testing.T, req JobRequest, of int) int {
	t.Helper()
	r := req
	r.normalize()
	g, err := r.compile()
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < of; s++ {
		idxs := g.Spec.Plan().ShardIndices(s, of)
		if len(idxs) > 0 && idxs[0] == 0 {
			return s
		}
	}
	t.Fatal("no shard holds cell 0")
	return 0
}

// TestServiceDegradedReport: with one shard doomed by the fault plane
// and AllowPartial set, the job terminates "degraded" instead of
// "failed": the report serves, exactly the doomed shard's cells carry
// errors, the injured list matches, and the partial result never
// enters the cache.
func TestServiceDegradedReport(t *testing.T) {
	req := testRequest()
	req.AllowPartial = true
	victim := victimShard(t, req, 2)
	plan := &faults.Plan{Victim: victim, VictimMix: []faults.Kind{faults.TransientExec}}
	coord := newTestCoordinator(t, func(cfg *Config) {
		cfg.MaxAttempts = 2
		cfg.RetryBase = time.Millisecond
		cfg.RetryMax = 2 * time.Millisecond
		cfg.WrapWorker = func(w Worker) Worker { return faults.Wrap(w, plan, t.Logf) }
	})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	client := &Client{BaseURL: srv.URL}

	st := submitAndWait(t, client, req) // Wait returns degraded jobs like done ones
	if st.State != StateDegraded {
		t.Fatalf("job state = %s, want degraded", st.State)
	}
	if len(st.Injured) == 0 {
		t.Fatal("degraded job lists no injured cells")
	}
	if st.CellsDone != st.CellsTotal-len(st.Injured) {
		t.Fatalf("cells_done = %d with %d/%d injured", st.CellsDone, len(st.Injured), st.CellsTotal)
	}

	// The error cells are exactly the injured list, which is exactly the
	// victim shard's cell set (TransientExec never streams a cell).
	art, err := client.Artifact(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	r := req
	r.normalize()
	g, err := r.compile()
	if err != nil {
		t.Fatal(err)
	}
	wantInjured := g.Spec.Plan().ShardIndices(victim, 2)
	injured := map[int]bool{}
	for _, i := range st.Injured {
		injured[i] = true
	}
	if len(wantInjured) != len(st.Injured) {
		t.Fatalf("injured %v, want victim shard's cells %v", st.Injured, wantInjured)
	}
	for _, i := range wantInjured {
		if !injured[i] {
			t.Fatalf("victim cell %d missing from injured list %v", i, st.Injured)
		}
	}
	for _, sc := range art.Grids[0].Results {
		if (sc.Err != "") != injured[sc.Index] {
			t.Fatalf("cell %d: error %q, injured=%v", sc.Index, sc.Err, injured[sc.Index])
		}
		if sc.Err != "" && !strings.Contains(sc.Err, "exhausted its attempts") {
			t.Fatalf("injured cell %d error %q does not carry the shard failure", sc.Index, sc.Err)
		}
	}

	// Degraded reports render in every format.
	for _, format := range harness.EncoderNames() {
		if _, err := client.Report(st.ID, format, req.Grid); err != nil {
			t.Fatalf("degraded %s report: %v", format, err)
		}
	}

	// Never cached: the identical resubmission dispatches fresh workers.
	st2 := submitAndWait(t, client, req)
	if st2.Cached {
		t.Fatal("degraded result was served from the cache")
	}
	if got := coord.Counters.JobsDegraded.Load(); got != 2 {
		t.Fatalf("jobs_degraded = %d, want 2", got)
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["jobs_degraded"] != 2 {
		t.Fatalf("stats jobs_degraded = %d", stats["jobs_degraded"])
	}
}

// TestServiceRestartResume: a coordinator dies mid-job (simulated by a
// one-attempt budget against a worker that crashes after its last
// durable cell but before the artifact write — faults.CrashBeforeArtifact
// — then Close); a new coordinator over the same DataDir, with no fault
// plane, accepts the resubmission, reuses the dead attempt's cell
// stream — the worker resumes rather than recomputes — and serves bytes
// identical to a direct run.
func TestServiceRestartResume(t *testing.T) {
	dataDir := t.TempDir()
	cfg := Config{
		DataDir:        dataDir,
		ExperimentsBin: experimentsBin,
		PollInterval:   50 * time.Millisecond,
		MaxAttempts:    1, // the crashed attempt exhausts the budget: job fails, dirs stay
		Logf:           t.Logf,
	}
	crashing := cfg
	plan := crashFirstAttempt(faults.CrashBeforeArtifact)
	crashing.WrapWorker = func(w Worker) Worker { return faults.Wrap(w, plan, t.Logf) }
	coord1, err := New(crashing)
	if err != nil {
		t.Fatal(err)
	}
	req := testRequest()
	st, err := coord1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := coord1.Job(st.ID)
	for !terminalState(j1.Status().State) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := j1.Status().State; got != StateFailed {
		t.Fatalf("first run state = %s, want failed", got)
	}
	coord1.Close()

	// Each shard streamed its cells before crashing.
	resumable := 0
	for shard := 0; shard < 2; shard++ {
		stream := filepath.Join(dataDir, "jobs", st.ID,
			fmt.Sprintf("shard_%d", shard), "attempt_0", shardBase(shard, 2)+".cells.jsonl")
		if data, err := os.ReadFile(stream); err == nil && len(bytes.TrimSpace(data)) > 0 {
			resumable++
		}
	}
	if resumable == 0 {
		t.Fatal("no shard left a resumable cell stream behind")
	}

	// The restarted coordinator: same DataDir, same job numbering, so
	// the resubmission lands in the same attempt dirs and resumes them.
	coord2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	srv := httptest.NewServer(coord2.Handler())
	defer srv.Close()
	client := &Client{BaseURL: srv.URL}
	st2 := submitAndWait(t, client, req)
	if st2.State != StateDone {
		t.Fatalf("resumed job state = %s", st2.State)
	}
	served, err := client.Report(st2.ID, "json", req.Grid)
	if err != nil {
		t.Fatal(err)
	}
	if direct := directReport(t, req, "json"); !bytes.Equal(served, direct) {
		t.Error("report after restart-resume differs from direct run")
	}
}

// TestServiceCrashDuringMergeRecovers: the coordinator completes every
// shard, then "crashes" between the last shard and the merge (the
// preMergeHook seam). The restarted coordinator recovers each shard's
// already-validated artifact from disk — zero worker dispatches — and
// merges to bytes identical to a direct run.
func TestServiceCrashDuringMergeRecovers(t *testing.T) {
	dataDir := t.TempDir()
	cfg := Config{
		DataDir:        dataDir,
		ExperimentsBin: experimentsBin,
		PollInterval:   50 * time.Millisecond,
		Logf:           t.Logf,
	}
	crashed := cfg
	crashed.preMergeHook = func(j *Job) error {
		return context.Canceled // any error: the job fails in the merge window
	}
	coord1, err := New(crashed)
	if err != nil {
		t.Fatal(err)
	}
	req := testRequest()
	st, err := coord1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := coord1.Job(st.ID)
	for !terminalState(j1.Status().State) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := j1.Status(); got.State != StateFailed || got.ShardsDone != got.Shards {
		t.Fatalf("crash-window run: state=%s shards %d/%d", got.State, got.ShardsDone, got.Shards)
	}
	coord1.Close()

	coord2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	srv := httptest.NewServer(coord2.Handler())
	defer srv.Close()
	client := &Client{BaseURL: srv.URL}
	st2 := submitAndWait(t, client, req)
	if st2.State != StateDone {
		t.Fatalf("recovered job state = %s", st2.State)
	}
	if got := coord2.Counters.ShardsRecovered.Load(); got != int64(st2.Shards) {
		t.Fatalf("shards_recovered = %d, want %d", got, st2.Shards)
	}
	if got := coord2.Counters.WorkersSpawned.Load(); got != 0 {
		t.Fatalf("recovery dispatched %d workers, want 0", got)
	}
	served, err := client.Report(st2.ID, "json", req.Grid)
	if err != nil {
		t.Fatal(err)
	}
	if direct := directReport(t, req, "json"); !bytes.Equal(served, direct) {
		t.Error("report after merge recovery differs from direct run")
	}
}

// TestServiceDrain: BeginDrain refuses new submissions — 503 over
// HTTP — while existing jobs stay queryable.
func TestServiceDrain(t *testing.T) {
	coord := newTestCoordinator(t, nil)
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	client := &Client{BaseURL: srv.URL, Retries: -1}

	st := submitAndWait(t, client, testRequest())
	coord.BeginDrain()
	if _, err := client.Submit(testRequest()); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("submit during drain: %v, want 503", err)
	}
	if _, err := client.Status(st.ID); err != nil {
		t.Fatalf("status during drain: %v", err)
	}
}

// TestClientRetriesTransientFailures: the client survives a window of
// 5xx responses (a restarting or draining coordinator) and gives up
// with the last error after its attempt budget.
func TestClientRetriesTransientFailures(t *testing.T) {
	var calls int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls <= 2 {
			http.Error(w, "restarting", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"jobs_done": 7}`))
	}))
	defer srv.Close()

	client := &Client{BaseURL: srv.URL, Retries: 5, RetryBase: time.Millisecond}
	stats, err := client.Stats()
	if err != nil {
		t.Fatalf("stats through 5xx window: %v", err)
	}
	if stats["jobs_done"] != 7 || calls != 3 {
		t.Fatalf("stats=%v after %d calls", stats, calls)
	}

	calls = 0
	hopeless := &Client{BaseURL: srv.URL, Retries: 2, RetryBase: time.Millisecond}
	srv.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	})
	if _, err := hopeless.Stats(); err == nil || !strings.Contains(err.Error(), "giving up after 2 attempts") {
		t.Fatalf("exhausted retries: %v", err)
	}
}

// fakePoolWorker is an inert Worker for pool unit tests.
type fakePoolWorker struct{ name string }

func (w *fakePoolWorker) Name() string                                          { return w.name }
func (w *fakePoolWorker) Run(ctx context.Context, bin string, a []string) error { return nil }

// TestWorkerPoolQuarantine drives the circuit breaker directly:
// consecutive failures bench a worker, a benched worker is only handed
// out as a probe when no healthy worker is idle, and a probe success
// restores it.
func TestWorkerPoolQuarantine(t *testing.T) {
	w0, w1 := &fakePoolWorker{"w0"}, &fakePoolWorker{"w1"}
	p := newWorkerPool([]Worker{w0, w1}, 2)
	ctx := context.Background()

	if got := p.report(w0, false); got != healthUnchanged {
		t.Fatalf("first failure transition = %v", got)
	}
	if got := p.report(w0, false); got != healthBenched {
		t.Fatalf("second failure transition = %v, want benched", got)
	}
	if got := p.quarantined(); got != 1 {
		t.Fatalf("quarantined = %d", got)
	}

	// Healthy worker first; the benched one only as a fallback probe.
	w, probe, err := p.acquire(ctx)
	if err != nil || w != Worker(w1) || probe {
		t.Fatalf("acquire with healthy idle: %v %v %v", w, probe, err)
	}
	w, probe, err = p.acquire(ctx)
	if err != nil || w != Worker(w0) || !probe {
		t.Fatalf("acquire with only benched idle: %v probe=%v err=%v", w, probe, err)
	}
	// tryAcquire (straggler backups) never burns a probe.
	p.release(w0)
	if w, ok := p.tryAcquire(); ok {
		t.Fatalf("tryAcquire handed out benched worker %v", w)
	}

	if got := p.report(w0, true); got != healthRestored {
		t.Fatalf("probe success transition = %v, want restored", got)
	}
	if got := p.quarantined(); got != 0 {
		t.Fatalf("quarantined after restore = %d", got)
	}

	// A cancelled context unblocks a starved acquire.
	if w, ok := p.tryAcquire(); !ok || w != Worker(w0) {
		t.Fatalf("restored worker not handed out: %v %v", w, ok)
	}
	cctx, cancel := context.WithCancel(ctx)
	go cancel()
	if _, _, err := p.acquire(cctx); err == nil {
		t.Fatal("acquire with empty pool ignored cancellation")
	}
}
