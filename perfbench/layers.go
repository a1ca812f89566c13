package main

// layerOp summarises every span of one name in the timed replay.
type layerOp struct {
	Calls         int     `json:"calls"`
	MeanUS        float64 `json:"mean_us"`
	AllocsPerCall float64 `json:"allocs_per_call"`
	BytesPerCall  float64 `json:"bytes_per_call"`
}

// spanAgg accumulates spans of one name.
type spanAgg struct {
	n              int
	ns, allocs, by float64
}

func (a *spanAgg) add(sp span) {
	a.n++
	a.ns += float64(sp.End - sp.Start)
	a.allocs += float64(sp.Allocs)
	a.by += float64(sp.Bytes)
}

func (a *spanAgg) meanUS() float64 {
	if a == nil || a.n == 0 {
		return 0
	}
	return a.ns / float64(a.n) / 1e3
}

// layerSpans maps each layer to the span names whose allocations it
// owns.
var layerSpans = map[string][]string{
	"serve":     {"serve.roundtrip"},
	"sql":       {"sql.normalize", "sql.parse_resolve"},
	"plancache": {"plancache.get", "plancache.put", "plancache.bind"},
	"rewrite":   {"rewrite.plan"},
	"engine":    {"engine.run"},
}

// setPerLayer fills the per-layer metrics from the replay's spans and
// stats trees and from the untraced half of the run.
func setPerLayer(res *result, r *replay, untraced loopStats, evictions int64) {
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	per := func(x, n float64) float64 {
		if n == 0 {
			return 0
		}
		return x / n
	}
	timed := map[string]*spanAgg{}
	all := map[string]*spanAgg{} // warm-up included: per-miss compile costs
	get := func(m map[string]*spanAgg, name string) *spanAgg {
		if m[name] == nil {
			m[name] = &spanAgg{}
		}
		return m[name]
	}
	roots := map[int]int{} // root span ID -> index in paths
	var paths, accounted []float64
	var pathSum, accountedSum float64
	queries := 0
	for _, sp := range r.tr.spans {
		if sp.FromStats {
			continue
		}
		if sp.Parent == 0 {
			if !sp.Warm && sp.Name == "query" {
				roots[sp.ID] = len(paths)
				paths = append(paths, float64(sp.End-sp.Start))
				accounted = append(accounted, 0)
				queries++
			}
			continue
		}
		get(all, sp.Name).add(sp)
		if sp.Warm {
			continue
		}
		get(timed, sp.Name).add(sp)
		if i, ok := roots[sp.Parent]; ok {
			if sp.Beside {
				paths[i] -= float64(sp.Wrap)
			} else {
				accounted[i] += float64(sp.End - sp.Start)
			}
		}
	}
	for i := range paths {
		pathSum += paths[i]
		accountedSum += accounted[i]
	}
	q := float64(queries)

	// serve
	rt, h := timed["serve.roundtrip"], timed["serve.handler"]
	set("serve.handler_ms", "ms", h.meanUS()/1e3)
	set("serve.roundtrip_ms", "ms", rt.meanUS()/1e3)
	set("serve.response_bytes_per_row", "B/row", per(float64(r.serveBytes), float64(r.serveRows)))
	set("serve.rejected", "count", float64(r.serveRejected))
	// sql, plancache, rewrite, engine
	set("sql.normalize_us", "us", timed["sql.normalize"].meanUS())
	set("sql.parse_resolve_us", "us", all["sql.parse_resolve"].meanUS())
	lookups := timed["plancache.get"]
	misses := timed["sql.parse_resolve"]
	hitRatio := 0.0
	if lookups != nil && lookups.n > 0 {
		hitRatio = 1 - per(float64(misses.nOrZero()), float64(lookups.n))
	}
	set("plancache.hit_ratio", "ratio", hitRatio)
	set("plancache.lookup_us", "us", lookups.meanUS())
	set("plancache.bind_us", "us", timed["plancache.bind"].meanUS())
	set("plancache.evictions", "count", float64(evictions))
	set("rewrite.plan_us", "us", all["rewrite.plan"].meanUS())
	set("rewrite.gmdj_ops", "count", per(float64(r.gmdjOps), q))
	set("rewrite.coalesced", "count", per(float64(r.coalesced), q))
	run := timed["engine.run"]
	set("engine.run_ms", "ms", run.meanUS()/1e3)
	for layer, names := range layerSpans {
		var allocs, by float64
		for _, n := range names {
			if a := timed[n]; a != nil {
				allocs += a.allocs
				by += a.by
			}
		}
		set(layer+".allocs_per_op", "count", per(allocs, q))
		set(layer+".alloc_bytes_per_op", "B", per(by, q))
	}
	// engine self time, exec and gmdj from the stats trees
	var rootMS, scanMS, gmdjSelf float64
	var rows, pruned, segs, batches, detail, short, seen, probes, fallback, completed, base, workers float64
	gmdjOps := 0
	for _, st := range r.stats {
		if st.root != nil {
			rootMS += ms(st.root.Elapsed)
		}
		scanMS += st.scanMS
		rows += float64(st.rowsScanned)
		pruned += float64(st.pruned)
		segs += float64(st.segs)
		batches += float64(st.batches)
		gmdjSelf += st.gmdjSelfMS
		detail += float64(st.detailRows)
		short += float64(st.shortCircuit)
		seen += float64(st.detailSeen)
		probes += float64(st.probes)
		fallback += float64(st.fallback)
		completed += float64(st.completed)
		base += float64(st.baseRows)
		workers += float64(st.workers)
		gmdjOps += st.gmdjOps
	}
	set("engine.self_ms", "ms", per(run.nsOrZero()/1e6-rootMS, q))
	set("exec.scan_ms", "ms", per(scanMS, q))
	set("exec.rows_scanned", "rows", per(rows, q))
	set("exec.segments_pruned_ratio", "ratio", per(pruned, segs))
	set("exec.batches", "count", per(batches, q))
	set("gmdj.self_ms", "ms", per(gmdjSelf, q))
	set("gmdj.detail_rows", "rows", per(detail, q))
	set("gmdj.visit_ratio", "ratio", per(detail+short, seen))
	set("gmdj.probes", "count", per(probes, q))
	set("gmdj.fallback_conds", "count", per(fallback, q))
	set("gmdj.completed_ratio", "ratio", per(completed, base))
	set("gmdj.short_circuit_rows", "rows", per(short, q))
	set("gmdj.workers", "count", per(workers, float64(gmdjOps)))
	// storage
	set("storage.segment_build_ms", "ms", all["storage.segment_build"].meanUS()/1e3)
	set("storage.keyhash_ms", "ms", timed["storage.keyhash"].meanUS()/1e3)
	set("storage.checkpoint_ms", "ms", timed["storage.checkpoint"].meanUS()/1e3)
	wrote := float64(r.writeStats.BytesWritten - r.writeBase.BytesWritten)
	set("storage.write_amp", "ratio", per(wrote, float64(r.logical-r.logicalBase)))
	set("storage.segments_written", "count", float64(r.writeStats.SegmentsWritten-r.writeBase.SegmentsWritten))
	set("storage.recovery_ms", "ms", timed["storage.recovery"].meanUS()/1e3)
	// runtime and the trace itself, against the untraced half
	set("runtime.gc_pause_ms_per_query", "ms", per(float64(untraced.gcPauseNs)/1e6, float64(len(untraced.queries))))
	p50, _ := percentile(untraced.queries, 0.5)
	set("trace.overhead_ratio", "ratio", per(median(paths)/1e6, p50))
	set("trace.unaccounted_share", "ratio", per(pathSum-accountedSum, pathSum))

	res.Samples["traced_query"] = queries
	res.Samples["untraced_query"] = len(untraced.queries)
	res.Layers = map[string]layerOp{}
	for name, a := range timed {
		res.Layers[name] = layerOp{Calls: a.n, MeanUS: a.meanUS(), AllocsPerCall: per(a.allocs, float64(a.n)), BytesPerCall: per(a.by, float64(a.n))}
	}
}

func (a *spanAgg) nOrZero() int {
	if a == nil {
		return 0
	}
	return a.n
}

func (a *spanAgg) nsOrZero() float64 {
	if a == nil {
		return 0
	}
	return a.ns
}
