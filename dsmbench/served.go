package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"dsmphase/internal/harness"
	"dsmphase/internal/service"
)

// The served workload: an in-process service.Coordinator with two local
// worker processes, driven by one closed-loop HTTP client on one
// connection. Each job is timed from submit to the last report byte;
// completion is detected on the job's event stream, each event stamped
// on arrival, so no poll interval quantizes the latency.

// server is a running coordinator behind an HTTP listener.
type server struct {
	coord *service.Coordinator
	srv   *http.Server
	base  string
	done  chan struct{}
}

func startServer(dir, bin string) (*server, error) {
	workers := make([]string, coordinatorWorkers)
	for i := range workers {
		workers[i] = "local"
	}
	coord, err := service.New(service.Config{
		DataDir:        dir,
		ExperimentsBin: bin,
		Workers:        workers,
		WorkerParallel: workerParallel,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		coord.Close()
		return nil, err
	}
	s := &server{coord: coord, srv: &http.Server{Handler: coord.Handler()},
		base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return s, nil
}

// stop closes the coordinator (ending open event streams), then the
// listener and connections, and waits for the serve loop to exit.
func (s *server) stop() {
	s.coord.Close()
	_ = s.srv.Close() // the serve loop's exit is awaited below
	<-s.done
}

// client is the single closed-loop client: one connection, reused.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// stamped is one job event with its arrival time since submit.
type stamped struct {
	at time.Duration
	ev service.Event
}

// jobTrace is one job's client-side record.
type jobTrace struct {
	id       string
	cached   bool
	terminal string // done, failed or degraded
	submit   time.Duration
	report   time.Duration // the GET of the rendered report
	total    time.Duration // submit → last report byte
	queued   time.Duration // server side: created → started
	events   []stamped
	body     []byte
}

// job submits req, follows its event stream to a terminal event, and
// fetches the markdown report. Events are stamped on arrival; those that
// happened before the stream connected arrive, and are stamped, at once.
func (c *client) job(req service.JobRequest) (*jobTrace, error) {
	jt := &jobTrace{}
	t0 := time.Now()
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	var st service.JobStatus
	err = decodeBody(resp, http.StatusAccepted, &st)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	jt.submit = time.Since(t0)
	jt.id, jt.cached = st.ID, st.Cached

	resp, err = c.hc.Get(c.base + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev service.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			resp.Body.Close()
			return nil, fmt.Errorf("event: %w", err)
		}
		jt.events = append(jt.events, stamped{at: time.Since(t0), ev: ev})
		if ev.Type == service.StateDone || ev.Type == service.StateFailed || ev.Type == service.StateDegraded {
			jt.terminal = ev.Type
			break
		}
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}
	if jt.terminal != service.StateDone {
		return jt, nil
	}

	tr := time.Now()
	resp, err = c.hc.Get(c.base + "/v1/jobs/" + st.ID + "/report?format=markdown")
	if err != nil {
		return nil, err
	}
	jt.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("report: %s: %s", resp.Status, bytes.TrimSpace(jt.body))
	}
	jt.report = time.Since(tr)
	jt.total = time.Since(t0)

	// Queue wait from the server's own timestamps, after the timed
	// request: events replayed on connect would all carry one stamp.
	if err := c.getJSON("/v1/jobs/"+st.ID, &st); err != nil {
		return nil, err
	}
	if st.Started != nil {
		jt.queued = st.Started.Sub(st.Created)
	}
	return jt, nil
}

func (c *client) getJSON(path string, v any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	return decodeBody(resp, http.StatusOK, v)
}

func (c *client) getBytes(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return b, err
}

func decodeBody(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}

// eventAt returns the arrival time of the first event of a type (and
// shard, when shard ≥ 0).
func (jt *jobTrace) eventAt(typ string, shard int) (time.Duration, bool) {
	for _, s := range jt.events {
		if s.ev.Type == typ && (shard < 0 || s.ev.Shard == shard) {
			return s.at, true
		}
	}
	return 0, false
}

// servedSeed derives the seed of the i-th cache-miss job of a run:
// distinct jobs get distinct plan fingerprints, so each first
// submission misses the result cache.
func servedSeed(base uint64, i int) uint64 {
	return harness.DeriveSeed(base, "dsmbench/served", 0, i)
}

// runServed runs the served workload; traced adds the per-layer
// decomposition and the service spans.
func runServed(w workload, o options, sc scale, traced bool) (*result, error) {
	res := newResult()
	root, err := filepath.Abs(filepath.Join(o.buildDir, fmt.Sprintf("served-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	bin, err := filepath.Abs(o.experiments)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("worker binary: %w", err)
	}
	base := service.JobRequest{
		Grid:     w.grids[0],
		Size:     w.params.Size.String(),
		Apps:     w.params.Apps,
		Interval: w.params.Interval,
	}
	// Set-up, several times: coordinator construction, listener ready,
	// and one warm-up job on a seed no timed job uses (a different one
	// each time, as the seed decides how evenly the cells split over the
	// shards). The last coordinator stays up for the timed region.
	var setups []float64
	var srv *server
	var cl *client
	for k := 0; k < sc.setups; k++ {
		if srv != nil {
			cl.close()
			srv.stop()
		}
		t := time.Now()
		if srv, err = startServer(filepath.Join(root, fmt.Sprintf("setup-%d", k)), bin); err != nil {
			return nil, err
		}
		cl = newClient(srv.base)
		warm := base
		warm.Seed = harness.DeriveSeed(o.seed, "dsmbench/served-warmup", 0, k)
		jt, err := cl.job(warm)
		if err != nil {
			srv.stop()
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
		if jt.terminal != service.StateDone {
			srv.stop()
			return nil, fmt.Errorf("warm-up job ended %s", jt.terminal)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			cl.close()
			srv.stop()
		}
	}()

	var stats0, stats1 map[string]int64
	if err := cl.getJSON("/v1/stats", &stats0); err != nil {
		return nil, err
	}

	// Timed region: cache misses on fresh seeds, each followed by
	// cache-hit resubmissions of the requests already served, paced so
	// the hits spread evenly over the miss phase. The hit count is
	// fixed, not time-boxed: the coordinator keeps every job, so the
	// count sets its memory high-water mark.
	var misses, hits []*jobTrace
	var seeds, hitSeeds []uint64
	hit := func() error {
		req := base
		req.Seed = seeds[len(hits)%len(seeds)]
		jt, err := cl.job(req)
		if err != nil {
			return fmt.Errorf("hit job %d: %w", len(hits), err)
		}
		res.Attempted++
		if jt.terminal != service.StateDone || !jt.cached {
			res.fail("hit job %s (seed %d): ended %s, cached %v", jt.id, req.Seed, jt.terminal, jt.cached)
		}
		hits = append(hits, jt)
		hitSeeds = append(hitSeeds, req.Seed)
		return nil
	}
	procCPU := func() float64 { return cpuSeconds(syscall.RUSAGE_SELF) + cpuSeconds(syscall.RUSAGE_CHILDREN) }
	var cpu float64 // over the miss jobs: coordinator plus reaped workers
	start := time.Now()
	for i := 0; len(misses) < sc.misses || time.Since(start).Seconds() < sc.missShare*o.seconds; i++ {
		req := base
		req.Seed = servedSeed(o.seed, i)
		c0 := procCPU()
		jt, err := cl.job(req)
		cpu += procCPU() - c0
		if err != nil {
			return nil, fmt.Errorf("miss job %d: %w", i, err)
		}
		res.Attempted++
		if jt.terminal != service.StateDone || jt.cached {
			res.fail("miss job %s (seed %d): ended %s, cached %v", jt.id, req.Seed, jt.terminal, jt.cached)
		}
		misses = append(misses, jt)
		seeds = append(seeds, req.Seed)
		for float64(len(hits)) < float64(sc.hits)*time.Since(start).Seconds()/(sc.missShare*o.seconds) && len(hits) < sc.hits {
			if err := hit(); err != nil {
				return nil, err
			}
		}
	}
	for len(hits) < sc.hits {
		if err := hit(); err != nil {
			return nil, err
		}
	}
	rss := peakRSSMB()
	if err := cl.getJSON("/v1/stats", &stats1); err != nil {
		return nil, err
	}
	var artBytes []byte
	if traced {
		if artBytes, err = cl.getBytes("/v1/jobs/" + misses[len(misses)-1].id + "/artifact"); err != nil {
			return nil, err
		}
	}
	cl.close()
	srv.stop()
	stopped = true

	// Correctness, outside the timed region: every served report must
	// equal a direct run of the same grid and seed byte for byte. The
	// direct runs are report_s's samples.
	var reportS []float64
	direct := map[uint64][]byte{}
	for _, seed := range seeds {
		grids, err := w.compile(seed)
		if err != nil {
			return nil, err
		}
		g := grids[0]
		t := time.Now()
		results := g.run(engineParallel)
		b, err := g.render(results)
		if err != nil {
			return nil, err
		}
		reportS = append(reportS, time.Since(t).Seconds())
		if err := harness.FirstError(results); err != nil {
			res.fail("direct run seed %d: %v", seed, err)
		}
		direct[seed] = b
	}
	for i, jt := range misses {
		if jt.terminal == service.StateDone && !bytes.Equal(jt.body, direct[seeds[i]]) {
			res.fail("miss job %s: served report differs from the direct run (seed %d)", jt.id, seeds[i])
		}
	}
	for k, jt := range hits {
		if seed := hitSeeds[k]; jt.terminal == service.StateDone && !bytes.Equal(jt.body, direct[seed]) {
			res.fail("hit job %s: served report differs from the direct run (seed %d)", jt.id, seed)
		}
	}

	missS := make([]float64, len(misses))
	for i, jt := range misses {
		missS[i] = jt.total.Seconds()
	}
	hitMS := make([]float64, len(hits))
	for i, jt := range hits {
		hitMS[i] = ms(jt.total)
	}
	if !traced {
		// Means, not medians, for the per-job times: the plan's hash
		// partition puts both 32P cells on one shard for some seeds and
		// not for others, so per-job latency is lumpy across seeds and a
		// median jumps between the lumps with the run's seed mix.
		res.set("setup_s", median(setups), "s", len(setups))
		res.set("report_s", mean(reportS), "s", len(reportS))
		res.set("served_s", mean(missS), "s", len(missS))
		res.note("served_s median %.6g s, p90 %.6g s; report_s median %.6g s", median(missS), percentile(missS, 90), median(reportS))
		res.note("served_hit_ms median %.6g ms, p95 %.6g ms (n=%d)", median(hitMS), percentile(hitMS, 95), len(hitMS))
		res.set("served_hit_ms", mean(hitMS), "ms", len(hitMS))
		res.set("cpu_s", cpu/float64(len(misses)), "s", len(misses))
		res.set("peak_rss_mb", rss, "MB", 0)
		return res, nil
	}

	// Traced: decompose the first job's grid in-process through the
	// layers, then add the service spans from the event stamps.
	grids, err := w.compile(seeds[0])
	if err != nil {
		return nil, err
	}
	tr, err := traceGrids(res, grids)
	if err != nil {
		return nil, err
	}
	res.Attempted += tr.cells
	if !bytes.Equal(tr.reports[0], direct[seeds[0]]) {
		res.fail("traced report differs from the direct run (seed %d)", seeds[0])
	}
	setLayerMetrics(res, tr)
	if err := serviceMetrics(res, w, misses, seeds, stats0, stats1, artBytes); err != nil {
		return nil, err
	}
	if err := tr.tracer.write(spansPath(o)); err != nil {
		return nil, err
	}
	res.note("spans: %d written to %s", len(tr.tracer.spans), spansPath(o))
	return res, nil
}

// serviceMetrics derives the service.* spans from the miss jobs' event
// stamps and the /v1/stats deltas.
func serviceMetrics(res *result, w workload, misses []*jobTrace, seeds []uint64, s0, s1 map[string]int64, art []byte) error {
	var submit, queue, shard, merge, report []float64
	for _, jt := range misses {
		submit = append(submit, ms(jt.submit))
		report = append(report, ms(jt.report))
		queue = append(queue, ms(jt.queued))
		var lastDone time.Duration
		for i := 0; ; i++ {
			d, ok1 := jt.eventAt("dispatch", i)
			e, ok2 := jt.eventAt("shard-done", i)
			if !ok1 || !ok2 {
				break
			}
			shard = append(shard, (e - d).Seconds())
			lastDone = max(lastDone, e)
		}
		if m, ok := jt.eventAt("merged", -1); ok && lastDone > 0 {
			merge = append(merge, ms(m-lastDone))
		}
	}

	// The same shards in-process, at Parallel 1 as each worker runs them.
	var direct []float64
	for _, seed := range seeds[:min(3, len(seeds))] {
		grids, err := w.compile(seed)
		if err != nil {
			return err
		}
		for i := 0; i < coordinatorWorkers; i++ {
			t := time.Now()
			if err := harness.FirstError(grids[0].Spec.RunShard(i, coordinatorWorkers, harness.Options{Parallel: workerParallel})); err != nil {
				return err
			}
			direct = append(direct, time.Since(t).Seconds())
		}
	}

	var decode []float64
	for k := 0; k < 5; k++ {
		t := time.Now()
		if _, err := harness.ReadShardArtifact(bytes.NewReader(art)); err != nil {
			return err
		}
		decode = append(decode, ms(time.Since(t)))
	}

	delta := func(keys ...string) float64 {
		n := int64(0)
		for _, k := range keys {
			n += s1[k] - s0[k]
		}
		return float64(n)
	}
	res.set("service.submit_ms", median(submit), "ms", len(submit))
	res.set("service.queue_ms", median(queue), "ms", len(queue))
	res.set("service.shard_s", median(shard), "s", len(shard))
	res.set("service.merge_ms", median(merge), "ms", len(merge))
	res.set("service.report_ms", median(report), "ms", len(report))
	res.set("service.dispatch_overhead_s", median(shard)-median(direct), "s", len(shard))
	res.set("service.retries", delta("shards_retried", "stragglers_redispatched"), "count", 0)
	res.set("service.checksum_failures", delta("checksum_failures"), "count", 0)
	res.set("service.cache_hits", delta("cache_hits"), "count", 0)
	res.set("harness.artifact_decode_ms", median(decode), "ms", len(decode))
	return nil
}
