// Command dmamem-serve runs the simulation-as-a-service daemon: an
// HTTP/JSON server that accepts simulation job submissions from
// tenants, schedules them on a bounded worker fleet with per-tenant
// weighted fair queueing and admission control, caches completed
// results by canonical config hash, and streams per-job progress.
//
// Usage:
//
//	dmamem-serve [-listen :8080] [-workers 2] [-quota 16]
//	             [-weights tenant=2,other=1] [-cache-bytes 524288]
//	             [-point-parallel 1] [-max-grid-points 4096]
//
// The job schema and a worked curl session are documented in
// docs/SERVICE.md. A report job's response body is byte-identical to
// the committed golden corpus (internal/experiments/testdata/golden/)
// for the default suite, which makes the daemon scriptable with cmp:
//
//	curl -s -d '{"Workload":"OLTP-St"}' 'localhost:8080/v1/jobs?wait=1' \
//	  | cmp - internal/experiments/testdata/golden/oltp-st_baseline.json
//
// -point-parallel runs each grid job's sweep points on that many
// goroutines; the result bytes are the same at any count. -cache-bytes
// bounds the result bytes the cache holds; the daemon also keeps its
// last 1024 finished jobs answerable by ID, and an older ID answers
// 410 Gone.
//
// Bad flags exit 2 before the daemon starts.
//
// The daemon shuts down cleanly on SIGINT/SIGTERM: it stops
// accepting, cancels queued and running jobs, and drains the fleet.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dmamem/internal/cli"
	"dmamem/internal/server/service"
)

func parseWeights(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]float64{}
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(pair, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad -weights entry %q, want tenant=weight", pair)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bad -weights value %q for tenant %q, want a positive number", val, name)
		}
		out[name] = w
	}
	return out, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stderr, nil)) }

// run parses args, starts the daemon, and blocks until a fatal server
// error or SIGINT/SIGTERM, returning the exit status. ready, when
// non-nil, is called with the bound listen address once the server is
// accepting — the seam the end-to-end test uses to talk to a daemon on
// an ephemeral port.
func run(args []string, stderr io.Writer, ready func(addr string)) int {
	fs, config := command(stderr)
	return cli.Exit(stderr, "dmamem-serve", cli.Run(fs, args, stderr, func() error {
		listen, cfg, err := config()
		if err != nil {
			return err
		}
		return serve(listen, cfg, stderr, ready)
	}))
}

// command defines the flags and returns the function that turns them
// into the listen address and the daemon's configuration.
func command(stderr io.Writer) (*flag.FlagSet, func() (string, service.Config, error)) {
	fs := flag.NewFlagSet("dmamem-serve", flag.ContinueOnError)
	listen := fs.String("listen", ":8080", "HTTP listen address")
	workers := fs.Int("workers", 2, "job-execution worker fleet size")
	quota := fs.Int("quota", 16, "per-tenant admission quota (queued+running jobs; negative = unlimited)")
	weights := fs.String("weights", "", "per-tenant fair-queueing weights, tenant=weight[,...]")
	cacheBytes := fs.Int("cache-bytes", service.DefaultCacheBytes, "result cache budget in bytes of answers (negative disables)")
	pointParallel := fs.Int("point-parallel", 1, "goroutines per grid job")
	maxGridPoints := fs.Int("max-grid-points", 4096, "reject grid jobs over this many points (negative = unlimited)")
	return fs, func() (string, service.Config, error) {
		// service.Config reads zero (and, for the two counts, any value
		// below 1) as "use the default", so such a flag value would be
		// replaced silently; it is rejected instead.
		var bad string
		switch {
		case *workers < 1:
			bad = fmt.Sprintf("-workers %d: want at least 1", *workers)
		case *pointParallel < 1:
			bad = fmt.Sprintf("-point-parallel %d: want at least 1", *pointParallel)
		case *quota == 0:
			bad = "-quota 0: want a positive bound, or a negative one for none"
		case *cacheBytes == 0:
			bad = "-cache-bytes 0: want a positive budget, or a negative one to disable the cache"
		case *maxGridPoints == 0:
			bad = "-max-grid-points 0: want a positive bound, or a negative one for none"
		}
		if bad != "" {
			return "", service.Config{}, cli.Usagef("%s", bad)
		}
		tw, err := parseWeights(*weights)
		if err != nil {
			return "", service.Config{}, cli.Usagef("%v", err)
		}
		return *listen, service.Config{
			Workers:       *workers,
			TenantQuota:   *quota,
			TenantWeights: tw,
			CacheBytes:    *cacheBytes,
			PointParallel: *pointParallel,
			MaxGridPoints: *maxGridPoints,
			Log:           stderr,
		}, nil
	}
}

// serve runs the daemon on listen until a fatal server error or
// SIGINT/SIGTERM.
func serve(listen string, cfg service.Config, stderr io.Writer, ready func(addr string)) error {
	d := service.New(cfg)
	defer d.Close()

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	srv := &http.Server{Handler: d.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	fmt.Fprintf(stderr, "dmamem-serve: listening on %s (%d workers, quota %d)\n", ln.Addr(), cfg.Workers, cfg.TenantQuota)
	if ready != nil {
		ready(ln.Addr().String())
	}

	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Fprintf(stderr, "dmamem-serve: %v, shutting down\n", s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
