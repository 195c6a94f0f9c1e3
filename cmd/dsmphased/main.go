// Command dsmphased is the experiment coordinator service: a
// long-running HTTP/JSON server that takes a grid submission from Spec
// parameters to a merged, cache-backed report.
//
// Jobs are POSTed as a named grid plus Spec parameters; the
// coordinator fans the grid's shards out over a worker pool (each
// worker execs cmd/experiments -shard with the -shard-dir handshake),
// resumes crashed attempts from their per-cell JSONL streams, retries
// failed attempts with backoff, quarantines failing workers,
// re-dispatches stragglers, merges the completed shard set through the
// same MergeShards/Assemble path the CLI uses — so a served report is
// byte-identical to a direct run — and answers repeat submissions from
// a fingerprint-keyed disk cache. See docs/SERVICE.md for the API and
// the failure model.
//
//	dsmphased -listen 127.0.0.1:8356 -data /var/lib/dsmphased
//	curl -d '{"grid":"figure2","size":"test"}' http://127.0.0.1:8356/v1/jobs
//	curl 'http://127.0.0.1:8356/v1/jobs/job-1/report?format=markdown'
//
// On SIGTERM or SIGINT the server drains: new submissions are refused
// (503), in-flight work is cancelled — shard streams stay on disk, so
// a restarted coordinator resumes them — and the HTTP listener shuts
// down gracefully. A second signal exits immediately.
//
// -chaos N runs the seeded fault-injection campaign instead of
// serving: N schedules of deterministic worker faults, each held to
// the byte-identity and exact-injury oracles (see service.RunChaos),
// exiting non-zero on any violation.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"dsmphase/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dsmphased:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dsmphased", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		listen     = fs.String("listen", "127.0.0.1:8356", "HTTP listen address (port 0 picks a free port)")
		addrFile   = fs.String("addr-file", "", "write the bound address to this file once listening (for scripts using port 0)")
		dataDir    = fs.String("data", "dsmphased-data", "state directory: result cache, job work dirs, ETA priors")
		expBin     = fs.String("experiments", "", "path of the experiments worker binary (default: next to this binary, else $PATH)")
		workers    = fs.String("workers", "local,local", `comma-separated worker pool, one "local" entry per worker process`)
		shards     = fs.Int("shards", 0, "default shard fan-out per job (0 = pool size)")
		parallel   = fs.Int("parallel", 0, "-parallel passed to each worker process (0 = worker default)")
		straggler  = fs.Duration("straggler-after", 10*time.Minute, "re-dispatch a shard attempt running longer than this to an idle worker")
		attempts   = fs.Int("max-attempts", 0, "dispatch attempts per shard, stragglers included (0 = 3)")
		retryBase  = fs.Duration("retry-base", 0, "backoff before a shard's first retry, doubling with jitter (0 = 250ms)")
		attemptTO  = fs.Duration("attempt-timeout", 0, "cancel and fail a dispatch attempt running longer than this (0 = no timeout)")
		quarantine = fs.Int("quarantine-after", 0, "bench a worker after this many consecutive failures (0 = 5)")
		cacheB     = fs.Int64("cache-bytes", service.DefaultCacheBytes, "result cache size bound in bytes")
		chaosN     = fs.Int("chaos", 0, "run a fault-injection chaos campaign of this many schedules instead of serving")
		chaosSeed  = fs.Uint64("chaos-seed", 1, "campaign seed for -chaos; same seed, same fault schedules")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}
	bin, err := findExperiments(*expBin)
	if err != nil {
		return err
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "dsmphased: "+format+"\n", args...)
	}
	if *chaosN > 0 {
		return runChaos(*chaosN, *chaosSeed, *dataDir, bin, logf)
	}
	coord, err := service.New(service.Config{
		DataDir:         *dataDir,
		ExperimentsBin:  bin,
		Workers:         splitList(*workers),
		DefaultShards:   *shards,
		CacheBytes:      *cacheB,
		StragglerAfter:  *straggler,
		MaxAttempts:     *attempts,
		RetryBase:       *retryBase,
		AttemptTimeout:  *attemptTO,
		QuarantineAfter: *quarantine,
		WorkerParallel:  *parallel,
		Logf:            logf,
	})
	if err != nil {
		return err
	}
	defer coord.Close()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "dsmphased: listening on http://%s (worker binary %s)\n", ln.Addr(), bin)

	srv := &http.Server{Handler: coord.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		// Graceful shutdown: refuse new jobs, cancel in-flight workers
		// (their shard streams stay on disk for a restart to resume),
		// then drain the HTTP side. A second signal aborts immediately.
		fmt.Fprintf(os.Stderr, "dsmphased: %v, draining (again to force exit)\n", s)
		go func() {
			<-sig
			fmt.Fprintln(os.Stderr, "dsmphased: second signal, exiting now")
			os.Exit(1)
		}()
		coord.BeginDrain()
		coord.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	case err := <-errCh:
		if err == http.ErrServerClosed {
			return nil
		}
		return err
	}
}

// runChaos runs the seeded fault-injection campaign and reports its
// verdict: the outcome table on stdout as JSON, violations (if any) on
// stderr and a non-nil error.
func runChaos(schedules int, seed uint64, dataDir, bin string, logf func(string, ...any)) error {
	scratch := filepath.Join(dataDir, "chaos")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	res, err := service.RunChaos(service.ChaosConfig{
		Schedules:      schedules,
		Seed:           seed,
		DataDir:        scratch,
		ExperimentsBin: bin,
		Logf:           logf,
	})
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return err
	}
	if n := len(res.Violations); n > 0 {
		for _, v := range res.Violations {
			fmt.Fprintln(os.Stderr, "dsmphased: chaos violation:", v)
		}
		return fmt.Errorf("chaos campaign: %d oracle violations", n)
	}
	fmt.Fprintf(os.Stderr, "dsmphased: chaos campaign passed (%d schedules, %d completed, %d degraded, seed %d)\n",
		res.Schedules, res.Completed, res.Degraded, seed)
	return nil
}

// findExperiments locates the worker binary: the -experiments flag, a
// sibling of this binary, or $PATH.
func findExperiments(flagVal string) (string, error) {
	if flagVal != "" {
		return flagVal, nil
	}
	if self, err := os.Executable(); err == nil {
		sibling := filepath.Join(filepath.Dir(self), "experiments")
		if _, err := os.Stat(sibling); err == nil {
			return sibling, nil
		}
	}
	if p, err := exec.LookPath("experiments"); err == nil {
		return p, nil
	}
	return "", fmt.Errorf("experiments worker binary not found (sibling or $PATH); pass -experiments")
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
