package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// compareMain compares two sets of result files of one workload:
//
//	perfbench compare base1.json base2.json ... -- new1.json new2.json ...
//
// It refuses (exit 2) when the files' machine fingerprints, workloads,
// run lengths or trace modes differ: wall times are comparable only on
// the same machine. Otherwise it prints, per metric, each side's median
// and the change, flagging a change worse than the metric's bound in
// BENCHMARK.json (read from the working directory when present), and
// exits 3 if any metric regressed beyond its bound.
func compareMain(args []string) int {
	var base, next []string
	side := &base
	for _, a := range args {
		if a == "--" {
			side = &next
			continue
		}
		*side = append(*side, a)
	}
	if len(base) == 0 || len(next) == 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <base.json>... -- <new.json>...")
		return 2
	}
	load := func(paths []string) ([]*result, error) {
		var out []*result
		for _, p := range paths {
			raw, err := os.ReadFile(p)
			if err != nil {
				return nil, err
			}
			var r result
			if err := json.Unmarshal(raw, &r); err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			out = append(out, &r)
		}
		return out, nil
	}
	b, err := load(base)
	if err == nil {
		var n []*result
		n, err = load(next)
		b = append(b, n...)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	ref := b[0]
	for _, r := range b[1:] {
		if !r.Fingerprint.sameMachine(ref.Fingerprint) {
			fmt.Fprintf(os.Stderr, "perfbench compare: refusing: machine fingerprints differ (%+v vs %+v)\n", ref.Fingerprint, r.Fingerprint)
			return 2
		}
		if r.Workload != ref.Workload || r.Seconds != ref.Seconds || r.Trace != ref.Trace {
			fmt.Fprintf(os.Stderr, "perfbench compare: refusing: runs differ in workload, length or trace mode\n")
			return 2
		}
	}
	bounds, better := benchmarkBounds()
	olds, news := b[:len(base)], b[len(base):]
	regressed := false
	fmt.Printf("%s: %d base run(s) vs %d new run(s)\n", ref.Workload, len(olds), len(news))
	for _, name := range sortedKeys(ref.Metrics) {
		collect := func(rs []*result) []float64 {
			var v []float64
			for _, r := range rs {
				if m, ok := r.Metrics[name]; ok {
					v = append(v, m.Value)
				}
			}
			return v
		}
		mo, mn := median(collect(olds)), median(collect(news))
		change := 0.0
		if mo != 0 {
			change = (mn - mo) / mo
		}
		worse := change
		if better[name] == "higher" {
			worse = -change
		}
		flag := ""
		if bound, ok := bounds[name]; ok && worse > bound {
			flag = fmt.Sprintf("  REGRESSION (bound %.0f%%)", bound*100)
			regressed = true
		}
		fmt.Printf("  %-34s %12.6g -> %12.6g  %+7.2f%%%s\n", name, mo, mn, change*100, flag)
	}
	if regressed {
		return 3
	}
	return 0
}

// benchmarkBounds reads each end-to-end metric's bound and direction
// from BENCHMARK.json in the working directory (empty when absent).
func benchmarkBounds() (map[string]float64, map[string]string) {
	bounds, better := map[string]float64{}, map[string]string{}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return bounds, better
	}
	var spec struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	if json.Unmarshal(raw, &spec) != nil {
		return bounds, better
	}
	for _, m := range spec.EndToEnd {
		bounds[m.Name], better[m.Name] = m.Bound, m.Better
	}
	for _, m := range spec.PerLayer {
		better[m.Name] = m.Better
	}
	return bounds, better
}
