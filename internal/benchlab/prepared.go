package benchlab

import (
	"fmt"
	"time"

	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/datagen"
	"github.com/olaplab/gmdj/internal/engine"
	"github.com/olaplab/gmdj/internal/plancache"
	"github.com/olaplab/gmdj/internal/sql"
	"github.com/olaplab/gmdj/internal/value"
)

// preparedIters is how many queries one timed measurement replays; the
// reported Elapsed is per query.
const preparedIters = 32

// preparedTemplate is Example 2.3's coalescing workload (the paper's
// Table 1 detail relation) with the three destination constants
// parameterized — the dashboard-replay shape: one template, many
// constant vectors.
const preparedTemplate = `SELECT u.IPAddress FROM User u
 WHERE NOT EXISTS (SELECT * FROM Flow f1 WHERE f1.SourceIP = u.IPAddress AND f1.DestIP = %s)
   AND EXISTS     (SELECT * FROM Flow f2 WHERE f2.SourceIP = u.IPAddress AND f2.DestIP = %s)
   AND NOT EXISTS (SELECT * FROM Flow f3 WHERE f3.SourceIP = u.IPAddress AND f3.DestIP = %s)`

// preparedDests rotates the paper's well-known destination IPs through
// the three placeholder roles, so consecutive queries differ in
// constants but share the template.
var preparedDests = [][3]string{
	{"167.167.167.0", "168.168.168.0", "169.169.169.0"},
	{"168.168.168.0", "169.169.169.0", "167.167.167.0"},
	{"169.169.169.0", "167.167.167.0", "168.168.168.0"},
}

// Prepared is the prepared-replay experiment: the same Example 2.3
// query replayed preparedIters times with rotating constants, under
// three API regimes —
//
//	unprepared    — every replay parses, resolves, and strategy-
//	                rewrites from scratch (the pre-Prepare API);
//	prepared      — the template compiles once; each replay binds
//	                parameters into the cached physical plan;
//	prepared-memo — prepared, plus the cross-query result memo of
//	                subquery sources. Every arm reuses the GMDJ detail
//	                key hashes, which each table memoizes per version.
func (r *Runner) Prepared() *Experiment {
	exp := &Experiment{
		ID:    "prepared",
		Title: "Prepared replay of the Example 2.3 workload (compile-once + memo vs per-query compilation)",
		Sizes: []Size{
			{Label: "2k flows", Outer: 40, Inner: r.scaleN(2_000)},
			{Label: "16k flows", Outer: 40, Inner: r.scaleN(16_000)},
			{Label: "96k flows", Outer: 40, Inner: r.scaleN(96_000)},
		},
		Variants: []Variant{
			{Name: "unprepared", Strategy: engine.GMDJOpt},
			{Name: "prepared", Strategy: engine.GMDJOpt},
			{Name: "prepared-memo", Strategy: engine.GMDJOpt},
		},
	}
	exp.Run = r.runPrepared
	return exp
}

// runPrepared measures one (size, variant) cell of the prepared
// experiment.
func (r *Runner) runPrepared(_ *Runner, exp *Experiment, s Size, v Variant) (Result, error) {
	res := Result{Figure: exp.ID, Variant: v.Name, Label: s.Label, Outer: s.Outer, Inner: s.Inner}
	cat := datagen.Netflow(datagen.NetflowOpts{Flows: s.Inner, Hours: 24, Users: s.Outer, Seed: 9})
	eng := engine.New(cat)
	eng.SetGMDJWorkers(r.Workers)
	eng.SetBudget(r.Budget)
	if v.Name == "prepared-memo" {
		eng.SetResultCache(plancache.NewResults(0))
	}

	// The prepared arms compile the template once, outside the replay
	// loop: this is exactly what Prepare buys.
	var tmpl algebra.Node
	if v.Name != "unprepared" {
		q := fmt.Sprintf(preparedTemplate, "$1", "$2", "$3")
		plan, err := sql.ParseAndResolve(q, eng)
		if err != nil {
			return res, fmt.Errorf("prepared/%s: %w", v.Name, err)
		}
		tmpl, err = eng.Plan(plan, v.Strategy)
		if err != nil {
			return res, fmt.Errorf("prepared/%s: planning: %w", v.Name, err)
		}
	}

	replay := func() error {
		for i := 0; i < preparedIters; i++ {
			d := preparedDests[i%len(preparedDests)]
			var phys algebra.Node
			if v.Name == "unprepared" {
				q := fmt.Sprintf(preparedTemplate,
					"'"+d[0]+"'", "'"+d[1]+"'", "'"+d[2]+"'")
				plan, err := sql.ParseAndResolve(q, eng)
				if err != nil {
					return err
				}
				phys, err = eng.Plan(plan, v.Strategy)
				if err != nil {
					return err
				}
			} else {
				var err error
				phys, err = algebra.BindParams(tmpl, []value.Value{
					value.Str(d[0]), value.Str(d[1]), value.Str(d[2]),
				})
				if err != nil {
					return err
				}
			}
			out, err := eng.Run(phys, engine.Native) // already rewritten
			if err != nil {
				return err
			}
			res.Rows = out.Len()
		}
		return nil
	}

	// Warm once untimed (memo population, allocator steady state), then
	// measure r.Repeat times keeping the best.
	if err := replay(); err != nil {
		return res, fmt.Errorf("prepared/%s: %w", v.Name, err)
	}
	repeat := r.Repeat
	if repeat < 1 {
		repeat = 1
	}
	best := time.Duration(0)
	for i := 0; i < repeat; i++ {
		start := time.Now()
		if err := replay(); err != nil {
			return res, fmt.Errorf("prepared/%s: %w", v.Name, err)
		}
		el := time.Since(start) / preparedIters
		if i == 0 || el < best {
			best = el
		}
	}
	res.Elapsed = best
	return res, nil
}
