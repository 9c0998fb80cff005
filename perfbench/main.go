// Command perfbench is the repository's benchmark. It builds the serving
// stack the way cmd/htapserve ships it, drives one workload from two
// closed-loop clients for a fixed time, times every request from the
// client side, checks every output, and prints its metrics. With
// --trace 1 it prints per-layer metrics instead, from a run whose
// requests are wrapped in spans and from a single-goroutine replay of the
// pool through each layer's public functions.
//
//	bash perfbench/run.sh --workload htap_write --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The command exits non-zero when an output disagrees with its reference
// or the harness itself fails; failed requests alone do not change the
// exit code.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"htapxplain/internal/gateway"
	"htapxplain/internal/htap"
)

// stateDir, relative to the checkout root the benchmark runs from, holds
// each run's temporary data and the span files traced runs leave.
const stateDir = ".bench_build"

const (
	setupRuns   = 3  // set-ups per run; setup_s is their median
	restartRuns = 8  // restarts per run; restart_s is their median
	numSlices   = 20 // the window's slices: metrics are medians over them, and --trace 1 traces odd ones
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: htap_write or explain")
	seed := fl.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fl.Int("seconds", 10, "length of the timed window in seconds")
	trace := fl.Int("trace", 0, "1: report per-layer metrics from a traced run")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var w workloadDef
	for _, d := range workloadDefs {
		if d.name == *name {
			w = d
		}
	}
	if w.name == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (htap_write, explain), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(stateDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	cfg := runConfig{w: w, seed: *seed, window: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, tmp: tmp, log: stderr}
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	report(stdout, cfg, res)
	if res.mismatches > 0 {
		fmt.Fprintf(stderr, "perfbench: %d output mismatches; first: %s\n", res.mismatches, res.firstMismatch)
		return 1
	}
	return 0
}

type runConfig struct {
	w      workloadDef
	seed   int64
	window time.Duration
	traced bool
	tmp    string // removed when the run ends
	log    io.Writer
}

type result struct {
	attempted, failed, mismatches int64
	firstMismatch                 string
	metrics                       map[string]float64
}

// counters is a snapshot of the public stat surfaces taken at both ends
// of the window.
type counters struct {
	gw    gateway.Snapshot
	mem   runtime.MemStats
	cpuNS int64
}

func snapshot(st *stack) counters {
	var c counters
	c.gw = st.gw.Metrics()
	runtime.ReadMemStats(&c.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpuNS = ru.Utime.Nano() + ru.Stime.Nano()
	}
	return c
}

func runWorkload(cfg runConfig) (*result, error) {
	w := cfg.w
	b := newBench(w, cfg.seed)
	logf := func(format string, args ...any) { fmt.Fprintf(cfg.log, format+"\n", args...) }

	var setups []float64
	for k := 0; k < setupRuns; k++ {
		runtime.GC() // every timed phase starts from a collected heap
		t0 := time.Now()
		st, err := buildStack(w, cfg.tmp, cfg.seed)
		if err != nil {
			return nil, err
		}
		b.st = st
		if err := b.warm(); err != nil {
			st.close()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k < setupRuns-1 {
			st.close()
			b.st = nil
		}
	}
	defer b.st.close()
	logf("set-up: %.3f s (median of %v)", median(setups), setups)

	// references are the benchmark's own work, outside set-up time
	if !w.explain {
		if err := b.buildRefs(b.st.sys); err != nil {
			return nil, err
		}
	}
	// a volatile restart is timed on both sides of the window, so the
	// median spans the run rather than one moment of it
	var restarts []float64
	if !w.durable {
		var err error
		if restarts, err = rebuildTimes(restartRuns / 2); err != nil {
			return nil, err
		}
	}

	runtime.GC()
	before := snapshot(b.st)
	ws := b.window(cfg.window, cfg.traced)
	after := snapshot(b.st)

	res := &result{metrics: map[string]float64{}}
	for _, c := range ws.clients {
		res.attempted += int64(len(c.lat))
		res.failed += c.failed
	}
	if res.attempted == 0 {
		return nil, fmt.Errorf("no operation completed in the window")
	}
	m := res.metrics
	m["setup_s"] = median(setups)
	m["qps"], m["p50_ms"], m["p99_ms"] = sliceStats(ws, cfg.window)
	logf("window: %d ops (%d failed) in %v; qps %.1f, p50 %.4f ms, p99 %.4f ms (medians over %d slices)",
		res.attempted, res.failed, ws.elapsed.Round(time.Millisecond), m["qps"], m["p50_ms"], m["p99_ms"], numSlices)

	// the heap is measured with the benchmark's reference data released
	b.refs, b.texts = nil, nil
	m["mem_mb"] = heapMiB()

	replayed := 0
	if w.durable {
		var err error
		if restarts, replayed, err = b.crashRestarts(cfg.tmp); err != nil {
			return nil, err
		}
	} else {
		more, err := rebuildTimes(restartRuns - len(restarts))
		if err != nil {
			return nil, err
		}
		restarts = append(restarts, more...)
	}
	m["restart_s"] = median(restarts)
	logf("restart: %.4f s (median of %d)", m["restart_s"], len(restarts))

	if cfg.traced {
		layer, err := b.perLayer(cfg, ws, before, after, replayed)
		if err != nil {
			return nil, err
		}
		res.metrics = layer
	}
	res.mismatches = b.mismatches.Load()
	res.firstMismatch = b.first
	return res, nil
}

// sliceStats returns throughput and the p50 and p99 latency of each
// slice of the window, each as its median over the slices, so a burst of
// interference from outside the process moves a minority of slices and
// not the result. A failed operation counts as +Inf latency; a
// percentile landing on one reads as the whole window.
func sliceStats(ws *windowResult, d time.Duration) (qps, p50ms, p99ms float64) {
	lat := make([][]float64, numSlices)
	ok := make([]float64, numSlices)
	for _, c := range ws.clients {
		for i, l := range c.lat {
			s := c.slices[i]
			lat[s] = append(lat[s], l)
			if !math.IsInf(l, 1) {
				ok[s]++
			}
		}
	}
	sliceS := d.Seconds() / numSlices
	finite := func(v float64) float64 {
		if math.IsInf(v, 1) {
			return float64(d) / 1e6
		}
		return v
	}
	var qs, p50s, p99s []float64
	for s := range lat {
		if len(lat[s]) == 0 {
			continue
		}
		sort.Float64s(lat[s])
		qs = append(qs, ok[s]/sliceS)
		p50s = append(p50s, finite(quantile(lat[s], 0.50)))
		p99s = append(p99s, finite(quantile(lat[s], 0.99)))
	}
	return median(qs), median(p50s), median(p99s)
}

// windowResult is what the closed loop leaves behind.
type windowResult struct {
	clients []*client
	elapsed time.Duration // start to the last completion
}

// window runs the closed loop: each client claims the next operation
// index, runs it, and repeats until the deadline. With traced set, odd
// tenths of the window record spans and even tenths do not, so the two
// halves' throughputs give the tracing overhead.
func (b *bench) window(d time.Duration, traced bool) *windowResult {
	start := time.Now()
	deadline := start.Add(d)
	slice := d / numSlices
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	ws := &windowResult{clients: make([]*client, clients)}
	for k := range ws.clients {
		c := &client{rec: recorder{base: start}}
		ws.clients[k] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t := time.Now()
				if !t.Before(deadline) {
					return
				}
				c.slice = int32(t.Sub(start) / slice)
				c.rec.on = traced && c.slice%2 == 1
				b.do(c, next.Add(1)-1)
				if c.rec.on {
					c.tracedOps++
				} else {
					c.plainOps++
				}
				c.last = time.Now()
			}
		}()
	}
	wg.Wait()
	for _, c := range ws.clients {
		if e := c.last.Sub(start); e > ws.elapsed {
			ws.elapsed = e
		}
	}
	b.writesUsed, _ = crosses(next.Load(), b.w.writeFrac)
	return ws
}

func heapMiB() float64 {
	runtime.GC()
	runtime.GC() // the second cycle also frees what sync.Pool victim caches held
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// tpchTables are every table of the schema, checked after writes.
var tpchTables = []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"}

// rowCounts counts every table on the row store and on the column store
// and returns the row-store counts, reporting any disagreement.
func rowCounts(sys *htap.System) (map[string]int, error) {
	out := make(map[string]int, len(tpchTables))
	for _, t := range tpchTables {
		res, err := sys.Run("SELECT COUNT(*) FROM " + t)
		if err != nil {
			return nil, fmt.Errorf("counting %s: %w", t, err)
		}
		if len(res.TPRows) != 1 || len(res.APRows) != 1 || res.TPRows[0][0].I != res.APRows[0][0].I {
			return out, fmt.Errorf("%s: row store and column store counts differ", t)
		}
		out[t] = int(res.TPRows[0][0].I)
	}
	return out, nil
}

// restart_s is the median time until the storage serves again after a
// crash. A volatile deployment rebuilds its storage from the source data,
// as htapserve does when it starts; a durable one reopens a crash image
// of its data directory.

// rebuildTimes times n rebuilds of a volatile system.
func rebuildTimes(n int) ([]float64, error) {
	var times []float64
	for k := 0; k < n; k++ {
		runtime.GC()
		t0 := time.Now()
		s, err := htap.New(htapConfig(""))
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		s.Close()
	}
	return times, nil
}

// crashRestarts times restartRuns reopens of crash images of the durable
// stack's data directory, copied without a clean close. The reopened
// system must recover every acknowledged write with the live system's
// table counts. It also returns the WAL records the first reopen
// replayed.
func (b *bench) crashRestarts(tmp string) ([]float64, int, error) {
	sys := b.st.sys
	if err := sys.WaitFresh(30 * time.Second); err != nil {
		b.mismatch("replication: %v", err)
	}
	live, err := rowCounts(sys)
	if err != nil {
		b.mismatch("after the window: %v", err)
	}
	acked := b.maxLSN.Load()
	var times []float64
	replayed := 0
	for k := 0; k < restartRuns; k++ {
		img := filepath.Join(tmp, fmt.Sprintf("crash-%d", k))
		if err := copyTree(b.st.dir, img); err != nil {
			return nil, 0, fmt.Errorf("crash image: %w", err)
		}
		runtime.GC()
		t0 := time.Now()
		r, err := htap.Open(img, htapConfig(img))
		if err != nil {
			return nil, 0, fmt.Errorf("reopening the crash image: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if k == 0 {
			info := r.Recovery()
			replayed = info.ReplayedMutations
			if info.RecoveredLSN < acked {
				b.mismatch("crash image recovered LSN %d, below the acknowledged LSN %d", info.RecoveredLSN, acked)
			}
			got, err := rowCounts(r)
			if err != nil {
				b.mismatch("after recovery: %v", err)
			}
			for _, t := range tpchTables {
				if got[t] != live[t] {
					b.mismatch("after recovery %s holds %d rows, the live system %d", t, got[t], live[t])
				}
			}
		}
		r.Close()
		os.RemoveAll(img)
	}
	return times, replayed, nil
}

// report prints every metric with its unit, then the JSON result line.
func report(out io.Writer, cfg runConfig, res *result) {
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%.0f trace=%v clients=%d gomaxprocs=%d\n",
		cfg.w.name, cfg.seed, cfg.window.Seconds(), cfg.traced, clients, runtime.GOMAXPROCS(0))
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := res.metrics[d.name]
		fmt.Fprintf(out, "  %-36s %14.4f %s\n", d.name, v, d.unit)
		ms[d.name] = metric{v, d.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.mismatches == 0, res.attempted, res.failed, ms})
	fmt.Fprintln(out, string(line))
}
