// Command simserved serves the simulator over HTTP: sweep jobs in, stats
// JSON out, with a content-addressed result cache so repeated cells cost
// a map probe instead of a simulation. See README's "Serving" section
// for the API and curl examples.
//
// Usage:
//
//	go run ./cmd/simserved                      # standalone on :8344
//	go run ./cmd/simserved -addr :9000 -workers 4 -queue 16
//	go run ./cmd/simserved -insns 100000 -verify -pprof
//
// The daemon also forms a fault-tolerant sweep fabric (see DESIGN.md §13):
//
//	go run ./cmd/simserved -role coordinator -data-dir /var/lib/simserved
//	go run ./cmd/simserved -role worker -peers http://coord:8344 -addr :8345
//
// A coordinator shards grid cells across pull-based workers, each cell
// held by its worker for as long as the worker heartbeats, re-queues
// cells lost to crashes and restarts, degrades to in-process execution
// with no workers live, and journals run state so its own restarts
// resume from the last completed cell. A worker is a standalone daemon
// that additionally pulls leased cells from -peers.
//
// SIGINT/SIGTERM drains gracefully: new runs get 503, /readyz fails so
// load balancers stop routing, and in-flight runs finish before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/fabric"
	"repro/internal/service"
	"repro/internal/sim"
)

func main() {
	addr := flag.String("addr", ":8344", "listen address")
	workers := flag.Int("workers", 2, "concurrent runs")
	queue := flag.Int("queue", 0, "admitted requests bound, running plus waiting (default workers+8)")
	maxCells := flag.Int("max-cells", 4096, "per-request grid cell budget")
	cacheEntries := flag.Int("cache-entries", 8192, "result cache bound in cells, LRU-evicted (about 650 B each)")
	enablePprof := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	drainTimeout := flag.Duration("drain-timeout", time.Minute, "graceful shutdown bound after SIGTERM")
	insns := cliutil.Insns(flag.CommandLine, sim.DefaultInsns)
	verify := cliutil.Verify(flag.CommandLine)
	jobs := cliutil.Jobs(flag.CommandLine)
	cellTimeout := flag.Duration("cell-timeout", 0,
		"per-cell wall-clock bound with one retry (0 = unbounded)")
	role := flag.String("role", "standalone",
		"daemon role: standalone, coordinator (shard cells to workers) or worker (pull cells from -peers)")
	peers := flag.String("peers", "",
		"comma-separated coordinator URLs a worker pulls from (the first entry is used; worker role only)")
	maxLease := flag.Int("max-lease-cells", 0,
		"cells a worker holds per lease (0 = the coordinator's default batch; worker role only)")
	dataDir := flag.String("data-dir", "",
		"crash-safe run journal directory (coordinator/standalone; empty = no journal)")
	workerID := flag.String("worker-id", "",
		"stable worker identity on the fabric (default: the hostname)")
	leaseTTL := flag.Duration("lease-ttl", 10*time.Second,
		"coordinator timing base: workers heartbeat every quarter of it, and a worker silent for three quarters of it loses its leased cells")
	flag.Parse()

	cfg := service.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		MaxCells:     *maxCells,
		CacheEntries: *cacheEntries,
		Parallelism:  *jobs,
		DefaultInsns: *insns,
		Verify:       *verify,
		CellTimeout:  *cellTimeout,
		EnablePprof:  *enablePprof,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var (
		journal *fabric.Journal
		recs    []fabric.Record
		stats   fabric.ReplayStats
	)
	if *dataDir != "" {
		var err error
		journal, recs, stats, err = fabric.OpenJournal(*dataDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simserved:", err)
			os.Exit(1)
		}
		defer journal.Close()
		cfg.Journal = journal
		if stats.TruncatedBytes > 0 {
			fmt.Fprintf(os.Stderr, "simserved: journal: discarded %d-byte torn tail (%s)\n",
				stats.TruncatedBytes, stats.TailError)
		}
	}

	switch *role {
	case "standalone", "worker":
	case "coordinator":
		coord := fabric.NewCoordinator(*leaseTTL)
		coord.Start(ctx)
		cfg.Coordinator = coord
	default:
		fmt.Fprintf(os.Stderr, "simserved: unknown -role %q (want standalone, coordinator or worker)\n", *role)
		os.Exit(1)
	}

	var worker *fabric.Worker
	if *role == "worker" {
		base := firstPeer(*peers)
		if base == "" {
			fmt.Fprintln(os.Stderr, "simserved: -role worker requires -peers")
			os.Exit(1)
		}
		id := *workerID
		if id == "" {
			id, _ = os.Hostname()
		}
		if id == "" {
			id = "worker-" + strings.TrimPrefix(*addr, ":")
		}
		worker = &fabric.Worker{
			Client:   &fabric.Client{BaseURL: base},
			ID:       id,
			MaxCells: *maxLease,
			OnError: func(err error) {
				fmt.Fprintln(os.Stderr, "simserved: worker:", err)
			},
		}
		cfg.FabricWorker = worker
	}

	srv := service.New(cfg)
	if journal != nil && len(recs) > 0 {
		fmt.Fprintf(os.Stderr, "simserved: replaying %d journal records\n", stats.Records)
		resumed, err := srv.RecoverJournal(ctx, recs, stats)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simserved: journal replay:", err)
		}
		if resumed > 0 {
			fmt.Fprintf(os.Stderr, "simserved: resumed %d unfinished run(s) from the journal\n", resumed)
		}
	}

	if worker != nil {
		worker.Exec = srv.RunJobs
		go worker.Run(ctx)
		fmt.Fprintf(os.Stderr, "simserved: worker %s pulling from %s\n", worker.ID, worker.Client.BaseURL)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "simserved: draining (new runs get 503; in-flight runs finish)")
		srv.BeginDrain()
		shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		done <- httpSrv.Shutdown(shutCtx)
	}()

	fmt.Fprintf(os.Stderr, "simserved: %s listening on %s\n", *role, *addr)
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "simserved:", err)
		os.Exit(1)
	}
	if err := <-done; err != nil {
		fmt.Fprintln(os.Stderr, "simserved: drain:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "simserved: drained cleanly")
}

// firstPeer picks the first non-empty entry of a comma-separated peer
// list, trimming a trailing slash so path joins stay clean.
func firstPeer(peers string) string {
	for _, p := range strings.Split(peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			return strings.TrimSuffix(p, "/")
		}
	}
	return ""
}
