// Command perfbench is the repository's benchmark. It generates a
// workload from a seed, drives the public gmdj.DB API (and, for
// serve-short, the olapd HTTP handler on a loopback listener), checks
// every result against a Native-strategy oracle, and prints its metrics.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	perfbench compare <base.json>... -- <new.json>...
//
// With --trace 0 it prints the end-to-end metrics of an untraced run.
// With --trace 1 it runs the workload untraced for half the time and
// then replays it layer by layer with spans for the other half, and
// prints the per-layer metrics. The last line of standard output is one
// JSON object {correct, attempted, failed, metrics}; the full result,
// stamped with the machine fingerprint, is written under the build
// directory (CARGO_TARGET_DIR, default .bench_build) in perfbench/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	workload := flag.String("workload", "", "workload name: tpcr-exists, netflow-theta, serve-short, ingest-durable")
	seed := flag.Int64("seed", 1, "seed the workload's data and query literals are generated from")
	seconds := flag.Int("seconds", 10, "measured seconds of the timed loop")
	trace := flag.Int("trace", 0, "1 = traced per-layer run, 0 = untraced end-to-end run")
	flag.Parse()
	w := findWorkload(*workload)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the full record of one run, written to the result file.
type result struct {
	Fingerprint fingerprint       `json:"fingerprint"`
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Trace       bool              `json:"trace"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Failures    []failure         `json:"failures,omitempty"`
	Metrics     map[string]metric `json:"metrics"`
	Samples     map[string]int    `json:"samples"`
	Notes       []string          `json:"notes,omitempty"`
	// Phases is the wall time of each phase of the run, in seconds.
	Phases   map[string]float64 `json:"phases"`
	Counters map[string]int64   `json:"counters,omitempty"`
	Layers   map[string]layerOp `json:"layers,omitempty"`
	SpanFile string             `json:"span_file,omitempty"`
}

// buildDir is the checkout's build directory (CARGO_TARGET_DIR, default
// .bench_build), where run.sh puts the binary and its Go caches.
func buildDir() string {
	if dir := os.Getenv("CARGO_TARGET_DIR"); dir != "" {
		return dir
	}
	return ".bench_build"
}

// outDir is where results, span files and scratch data go.
func outDir() string { return filepath.Join(buildDir(), "perfbench") }

func run(w *workload, seed int64, d time.Duration, traced bool) error {
	out := outDir()
	tmp := filepath.Join(out, fmt.Sprintf("tmp-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	fp, err := takeFingerprint()
	if err != nil {
		return err
	}
	res := &result{Fingerprint: fp, Workload: w.name, Seed: seed, Seconds: d.Seconds(), Trace: traced,
		Metrics: map[string]metric{}, Samples: map[string]int{}, Phases: map[string]float64{}}
	if traced {
		err = tracedRun(w, seed, d, tmp, out, res)
	} else {
		err = untracedRun(w, seed, d, tmp, res)
	}
	if err != nil {
		return err
	}
	res.Correct = res.Failed == 0
	name := fmt.Sprintf("result-%s-seed%d-trace%d.json", w.name, seed, map[bool]int{false: 0, true: 1}[traced])
	path := filepath.Join(out, name)
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	report(res, path)
	return nil
}

func untracedRun(w *workload, seed int64, d time.Duration, tmp string, res *result) error {
	phase := res.phaseTimer()
	s, err := open(w, seed, tmp)
	if err != nil {
		return err
	}
	defer s.close()
	phase("setup_and_oracle")
	s.warm()
	phase("warm")
	st := s.loop(d)
	phase("loop")
	commits, oracle := st.commits, s.e.db
	if w.writes() {
		if oracle, err = s.verify(); err != nil {
			return err
		}
		defer oracle.Close()
		phase("verify")
	} else {
		if commits, err = s.commitDataset(); err != nil {
			return fmt.Errorf("committing the loaded dataset: %w", err)
		}
		phase("commit_dataset")
	}
	dur, err := s.recoverCheck(oracle)
	if err != nil {
		return err
	}
	phase("recovery")
	setEndToEnd(res, s, st, commits, dur)
	return nil
}

// errorRatioFloor is what error_ratio reads on a run without failures.
const errorRatioFloor = 1e-6

// setEndToEnd fills the end-to-end metrics from one untraced loop.
func setEndToEnd(res *result, s *session, st loopStats, commits []float64, dur durability) {
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	p50, _ := percentile(st.queries, 0.5)
	p90, beyond := percentile(st.queries, 0.9)
	c50, _ := percentile(commits, 0.5)
	c90, cbeyond := percentile(commits, 0.9)
	set("setup_s", "s", median(s.setups))
	set("qps", "1/s", float64(len(st.queries))/st.wall.Seconds())
	set("query_p50_ms", "ms", p50)
	set("query_p90_ms", "ms", p90)
	res.Attempted, res.Failed, res.Failures = s.tally.attempted, s.tally.failed, s.tally.failures
	// The 1e-6 offset keeps a clean run's ratio above zero; one failure
	// in a run raises it by orders of magnitude.
	set("error_ratio", "ratio", float64(res.Failed)/float64(max(res.Attempted, 1))+errorRatioFloor)
	set("alloc_kb_per_query", "KiB", float64(st.allocB)/1024/float64(max(st.ops, 1)))
	set("heap_peak_mb", "MiB", float64(st.heapPeak)/(1<<20))
	set("commit_p50_ms", "ms", c50)
	set("commit_p90_ms", "ms", c90)
	set("space_amp", "ratio", dur.spaceAmp)
	set("recovery_s", "s", median(dur.recoveries))
	res.Samples["query"] = len(st.queries)
	res.Samples["query_beyond_p90"] = beyond
	res.Samples["commit"] = len(commits)
	res.Samples["commit_beyond_p90"] = cbeyond
	res.Samples["setup"] = len(s.setups)
	res.Samples["recovery"] = len(dur.recoveries)
	if beyond < 10 {
		res.Notes = append(res.Notes, fmt.Sprintf("query_p90_ms has only %d samples beyond it", beyond))
	}
}

// phaseTimer returns a function that records the time since its
// previous call under the given phase name.
func (res *result) phaseTimer() func(name string) {
	last := time.Now()
	return func(name string) {
		now := time.Now()
		res.Phases[name] = now.Sub(last).Seconds()
		last = now
	}
}

// report prints the human-readable summary, then the result line.
func report(res *result, path string) {
	f := res.Fingerprint
	fmt.Printf("perfbench %s seed=%d trace=%v commit=%s gomaxprocs=%d nproc=%d parallel=%s cpu=%q go=%s\n",
		res.Workload, res.Seed, res.Trace, f.Commit, f.GOMAXPROCS, f.NumCPU, f.GMDJParallel, f.CPUModel, f.GoVersion)
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Printf("  %-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, name := range sortedKeys(res.Samples) {
		fmt.Printf("  samples.%-26s %14d\n", name, res.Samples[name])
	}
	for _, name := range sortedKeys(res.Phases) {
		fmt.Printf("  phase.%-28s %14.3f s\n", name, res.Phases[name])
	}
	for _, n := range res.Notes {
		fmt.Println("  note:", n)
	}
	for _, fl := range res.Failures {
		fmt.Printf("  FAILED %s: %s\n", fl.Op, fl.Reason)
	}
	fmt.Println("  result file:", path)
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics}
	raw, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(raw))
}
