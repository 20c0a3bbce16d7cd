// Command ledgerbench is the repository's benchmark: verified subnets
// per second for in-process and fleet CSP runs, with a separate traced
// run that times each layer of the stack from outside.
//
//	ledgerbench --workload csp-ckpt --seed 1 --seconds 30 --trace 0
//
// Every run goes through a public entry point (JobSpec → FromSpec →
// NewRunner → Run, or a distrib coordinator with in-process workers)
// and counts only if its outputs check out. The last line of standard
// output is one JSON object: correct, attempted, failed and metrics —
// the end-to-end metrics with --trace 0, the per-layer ledger with
// --trace 1. The exit code is non-zero when any run failed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// The fewest measured runs a result rests on, whatever --seconds says:
// end-to-end medians, and traced/untraced pairs for the ledger.
const (
	minRuns  = 3
	minPairs = 2
)

// peakRuns is how many measured runs, after the warm-up, peak_rss_mb
// covers. The process peak only grows, so a peak over however many
// runs fit the budget would rise on a faster machine; and the largest
// of a few runs' peaks moves less than one run's.
const peakRuns = 5

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: csp-ckpt, numeric-verify or fleet-tcp")
	seed := flag.Uint64("seed", 1, "workload seed: picks the subnet stream")
	seconds := flag.Int("seconds", 30, "measurement time per invocation")
	traced := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "ledger"), "scratch directory for checkpoints")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "ledgerbench: want --seconds >= 1 and --trace 0|1, no positional arguments")
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledgerbench:", err)
		return 2
	}
	dir := filepath.Join(*workdir, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "ledgerbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	budget := time.Duration(*seconds) * time.Second
	var rep report
	if *traced == 1 {
		rep = tracedRuns(context.Background(), w, streamSeed(*seed, 0), dir, budget)
	} else {
		rep = endToEnd(context.Background(), w, *seed, dir, budget)
	}
	for k, v := range rep.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			// Only a run with no successful measurement gets here, and it
			// is already reported as incorrect; keep the line valid JSON.
			rep.Correct = false
			rep.Metrics[k] = metric{0, v.Unit}
		}
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledgerbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !rep.Correct {
		return 1
	}
	return 0
}

// tally counts runs attempted and failed; a failure is reported on
// standard error and never retried away.
type tally struct{ attempted, failed int }

func (t *tally) add(label string, err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(os.Stderr, "ledgerbench: %s run %d failed: %v\n", label, t.attempted, err)
		return false
	}
	return true
}

// loop repeats body until the budget is spent: it stops before a run
// that would likely overrun, judged by the median run time so far,
// once least measured runs exist. body reports its own duration.
func loop(budget time.Duration, least int, measured func() int, body func() time.Duration) {
	deadline := time.Now().Add(budget)
	var took []float64
	for {
		took = append(took, float64(body()))
		left := time.Until(deadline)
		if measured() >= least && float64(left) < median(took) {
			return
		}
		if measured() == 0 && len(took) >= 2*least {
			return // every run fails: stop, the failures are the result
		}
	}
}

// endToEnd measures the user-visible metrics with tracing off. One
// warm-up run is checked and counted but not measured, so lazy
// start-up cost (page faults, heap growth) does not land in one run.
func endToEnd(ctx context.Context, w workload, seed uint64, dir string, budget time.Duration) report {
	var t tally
	var runs []runStats
	var peakKB int64
	i := -1 // the warm-up run
	loop(budget, minRuns, func() int { return len(runs) }, func() time.Duration {
		st, err := runOnce(ctx, w, streamSeed(seed, max(i, 0)), dir, nil)
		if t.add("end-to-end", err) && i >= 0 {
			runs = append(runs, st)
		}
		i++
		if i == peakRuns {
			peakKB = readUsage().maxRSSKB
		}
		return st.wall
	})
	if peakKB == 0 { // fewer than peakRuns runs fit the budget
		peakKB = readUsage().maxRSSKB
	}
	n := float64(w.subnets)
	var rate, setup, cpu, alloc, lags []float64
	for _, st := range runs {
		rate = append(rate, n/st.wall.Seconds())
		setup = append(setup, st.setup.Seconds())
		cpu = append(cpu, float64(st.cpu)/float64(time.Millisecond)/n)
		alloc = append(alloc, float64(st.alloc)/1e6)
		lags = append(lags, st.lags...)
	}
	m := map[string]metric{
		"subnets_per_s":     {median(rate), "1/s"},
		"setup_s":           {median(setup), "s"},
		"cpu_ms_per_subnet": {median(cpu), "ms"},
		"alloc_mb":          {median(alloc), "MB"},
		"peak_rss_mb":       {float64(peakKB) * 1024 / 1e6, "MB"},
	}
	quart := map[string][]float64{"subnets_per_s": rate, "setup_s": setup, "cpu_ms_per_subnet": cpu, "alloc_mb": alloc}
	for _, k := range []string{"subnets_per_s", "setup_s", "cpu_ms_per_subnet", "alloc_mb"} {
		xs := sorted(quart[k])
		fmt.Printf("%-18s %12.4f %-4s (median of %d runs; q1 %.4f q3 %.4f)\n", k, m[k].Value, m[k].Unit,
			len(runs), quantile(xs, 0.25), quantile(xs, 0.75))
	}
	fmt.Printf("%-18s %12.4f %-4s (process peak over the warm-up and %d runs)\n", "peak_rss_mb", m["peak_rss_mb"].Value, "MB", min(peakRuns, len(runs)))
	// durable_lag_p90 and failed_ratio are printed but kept out of the
	// JSON metrics: both read 0 on a healthy tree, and a zero median
	// cannot carry a relative bound. failed_ratio is the JSON line's
	// failed/attempted.
	if w.fleet {
		fmt.Printf("%-18s %12s %-4s (the coordinator exposes no frontier probe)\n", "durable_lag_p90", "n/a", "")
	} else {
		v, ok := percentile(lags, 90)
		p, tv, tok := highestTail(lags)
		fmt.Printf("%-18s %12.4f %-4s (%d samples, qualifies=%v; highest qualifying p%g = %.4f, %v)\n",
			"durable_lag_p90", v, "subnets", len(lags), ok, p, tv, tok)
	}
	fmt.Printf("%-18s %12.4f %-4s (%d of %d runs failed)\n", "failed_ratio", float64(t.failed)/float64(t.attempted), "", t.failed, t.attempted)
	return report{Correct: t.failed == 0 && len(runs) > 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
}
