package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/engine"
	"github.com/olaplab/gmdj/internal/obs"
	"github.com/olaplab/gmdj/internal/plancache"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/sql"
	"github.com/olaplab/gmdj/internal/storage"
	"github.com/olaplab/gmdj/internal/value"
)

// The traced run replays a workload by calling, in order, the layer
// functions gmdj.DB.QueryStrategyContext calls: sql.Normalize, the plan
// cache's Get (and on a miss sql.ParseAndResolve, engine.Plan and Put),
// algebra.BindParams, then PhysicalPlan.Run with CollectStats. It adds
// Table.Segment before the run, the olapd handler, and for writes the
// Insert and engine Checkpoint. Each call is one span; spans are kept in
// memory and written out when the run ends. Operator-level times and
// counters come from the program's own obs.Op tree.

// span is one timed call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root (one per operation)
	Op     int    `json:"op"`     // the operation the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the replay began
	End    int64  `json:"end_ns"`
	// Wrap is the span plus the allocation accounting around it.
	Wrap int64 `json:"wrap_ns,omitempty"`
	// Beside marks a call made next to the operation on the same inputs
	// rather than on its path (Segment.KeyHashes, which the GMDJ calls
	// internally; the layer replay of a request the server executed).
	Beside bool `json:"beside,omitempty"`
	// FromStats marks an operator span read from the obs.Op tree: its
	// duration is measured, its start is its parent's.
	FromStats bool   `json:"from_stats,omitempty"`
	Allocs    uint64 `json:"allocs,omitempty"`
	Bytes     uint64 `json:"bytes,omitempty"`
	Warm      bool   `json:"warm,omitempty"` // cache warm-up, not timed
}

type tracer struct {
	t0    time.Time
	spans []span
	op    int // current operation id
	root  int // index of the current root span
	warm  bool
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// beginOp opens a new operation's root span.
func (t *tracer) beginOp(name string) {
	t.op++
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Op: t.op, Name: name, Start: t.now(), Warm: t.warm})
	t.root = len(t.spans) - 1
}

func (t *tracer) endOp() { t.spans[t.root].End = t.now() }

// call runs f as one span under the current root, with the allocation
// count and bytes around it taken from runtime.MemStats deltas (the
// replay is single-client, so the deltas are f's own). It returns the
// span's index.
func (t *tracer) call(name string, beside bool, f func()) int {
	a0 := time.Now()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := t.now()
	f()
	end := t.now()
	runtime.ReadMemStats(&m1)
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: t.spans[t.root].ID, Op: t.op, Name: name,
		Start: start, End: end, Wrap: int64(time.Since(a0)), Beside: beside, Warm: t.warm,
		Allocs: m1.Mallocs - m0.Mallocs, Bytes: m1.TotalAlloc - m0.TotalAlloc,
	})
	return len(t.spans) - 1
}

// child records a span measured elsewhere (the server's handler time,
// an operator from the stats tree) under span parent.
func (t *tracer) child(parent int, name string, start, end int64, fromStats bool) int {
	p := t.spans[parent]
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: p.ID, Op: p.Op, Name: name,
		Start: start, End: end, Beside: p.Beside, FromStats: fromStats, Warm: t.warm})
	return len(t.spans) - 1
}

// statsSpans adds the operator tree under span parent.
func (t *tracer) statsSpans(parent int, op *obs.Op) {
	if op == nil {
		return
	}
	start := t.spans[parent].Start
	idx := t.child(parent, "op:"+op.Label, start, start+int64(op.Elapsed), true)
	for _, ch := range op.Children {
		t.statsSpans(idx, ch)
	}
}

// counters are the work counters the self-check expects to repeat
// exactly at a fixed seed and degree.
type counters struct {
	DetailRows, Probes, Completed, RowsScanned, PlanMisses, SegmentsWritten int64
}

func (c counters) named() map[string]int64 {
	return map[string]int64{
		"gmdj.detail_rows": c.DetailRows, "gmdj.probes": c.Probes, "gmdj.completed": c.Completed,
		"exec.rows_scanned": c.RowsScanned, "plancache.misses": c.PlanMisses,
		"storage.segments_written": c.SegmentsWritten,
	}
}

// opStats is what one replayed query reported from its stats tree.
type opStats struct {
	root                                  *obs.Op
	scanMS                                float64
	rowsScanned, pruned, segs, batches    int64
	gmdjSelfMS                            float64
	gmdjOps                               int
	detailRows, shortCircuit, detailSeen  int64
	probes, fallback, completed, baseRows int64
	workers                               int64
	packedHash                            bool
}

func readStats(root *obs.Op) opStats {
	st := opStats{root: root}
	var walk func(op *obs.Op)
	walk = func(op *obs.Op) {
		if strings.HasPrefix(op.Label, "Scan") {
			st.scanMS += ms(op.Elapsed)
			st.rowsScanned += op.Rows
		}
		if strings.HasPrefix(op.Label, "GMDJ") {
			st.gmdjOps++
			self := op.Elapsed
			for _, ch := range op.Children {
				self -= ch.Elapsed
			}
			st.gmdjSelfMS += ms(self)
			st.detailRows += op.Get("detail_rows")
			st.shortCircuit += op.Get("short_circuit_rows")
			st.probes += op.Get("probes")
			st.fallback += op.Get("fallback_conds")
			st.completed += op.Get("completed")
			st.workers += op.Get("workers")
			st.packedHash = st.packedHash || op.Get("packed_hash_conds") > 0
			if len(op.Children) == 2 {
				st.baseRows += op.Children[0].Rows
				st.detailSeen += op.Children[1].Rows
			}
		}
		for _, ch := range op.Children {
			walk(ch)
		}
	}
	if root != nil {
		walk(root)
		tot := root.Totals()
		st.pruned, st.segs, st.batches = tot["segments_pruned"], tot["segments_total"], tot["batches"]
	}
	return st
}

// replay is the layer-by-layer twin of a session's DB, built on an
// identically generated catalog.
type replay struct {
	w       *workload
	s       *session
	cat     *storage.Catalog
	eng     *engine.Engine
	pc      *plancache.Cache
	tr      *tracer
	dataDir string

	gen     *writeGen
	logical int64 // user-data bytes loaded and written by the replay
	// writeBase and logicalBase open the counted write window (see
	// markWrites); writeStats closes it.
	writeBase, writeStats storage.DiskStoreStats
	logicalBase           int64

	// segVersions is the table version the replay last saw packed.
	segVersions map[string]uint64
	cnt         counters
	stats       []opStats // per timed query op
	// plan-shape tallies over the timed query ops
	gmdjOps, coalesced int
	serveBytes         int64
	serveRows          int64
	serveRejected      int64
}

func newReplay(s *session, dataDir string) (*replay, error) {
	w := s.w
	r := &replay{w: w, s: s, cat: storage.NewCatalog(), tr: newTracer(), dataDir: dataDir,
		gen: newWriteGen(w, s.seed), segVersions: map[string]uint64{}}
	cl := &countingLoader{loader: catLoader{r.cat}}
	if err := w.load(cl, s.seed); err != nil {
		return nil, err
	}
	r.logical = cl.bytes
	r.eng = engine.New(r.cat)
	r.pc = plancache.New(w.planCacheBytes)
	r.eng.SetPlanCache(r.pc)
	if w.writes() {
		if _, err := r.eng.SetDataDir(dataDir); err != nil {
			return nil, err
		}
		if _, err := r.eng.Checkpoint(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *replay) close() { _ = r.eng.Close() }

// query replays one query through the layers and has the session check
// its digest (see session.result). With viaServer the same request also
// goes through the olapd handler on the session's DB. On a served
// workload that request is the operation's path and the layer replay is
// recorded beside it; elsewhere the request is a sample recorded beside
// the replay. Only the calls are inside the operation's span; checking
// follows it.
func (r *replay) query(label, q string, k int, viaServer bool) {
	r.tr.beginOp("query")
	var served httpResult
	var serveErr error
	if viaServer {
		served, serveErr = r.serve(q, !r.w.http)
	}
	rel, st, plan, err := r.layers(q, viaServer && r.w.http)
	r.tr.endOp()
	if viaServer {
		// The server runs on the session's DB, at the session's writes.
		r.s.result(label+" (via server)", q, k, r.s.e.gen.batches, digestRows(served.rows), serveErr)
	}
	if err != nil {
		r.s.result(label, q, k, r.gen.batches, digest{}, err)
		return
	}
	if !r.tr.warm {
		r.stats = append(r.stats, st)
		g, c := planShape(plan)
		r.gmdjOps += g
		r.coalesced += c
	}
	r.cnt.DetailRows += st.detailRows
	r.cnt.Probes += st.probes
	r.cnt.Completed += st.completed
	r.cnt.RowsScanned += st.rowsScanned
	r.s.result(label, q, k, r.gen.batches, digestRelation(rel), nil)
}

// layers makes the traced calls gmdj.DB.QueryStrategyContext makes, in
// its order, and returns the result, its stats and the plan template.
func (r *replay) layers(q string, beside bool) (*relation.Relation, opStats, algebra.Node, error) {
	tr := r.tr
	var norm string
	var args []value.Value
	var explicit bool
	var err error
	tr.call("sql.normalize", beside, func() { norm, args, explicit, err = sql.Normalize(q) })
	if err == nil && explicit {
		err = fmt.Errorf("query has placeholders")
	}
	if err != nil {
		return nil, opStats{}, nil, err
	}
	key := plancache.Key{Text: norm, Strategy: uint8(engine.GMDJOpt)}
	epoch := r.cat.SchemaEpoch()
	var ent *plancache.Entry
	var ok bool
	tr.call("plancache.get", beside, func() { ent, ok = r.pc.Get(key, epoch) })
	if !ok {
		var plan algebra.Node
		tr.call("sql.parse_resolve", beside, func() { plan, err = sql.ParseAndResolve(norm, r.eng) })
		if err != nil {
			return nil, opStats{}, nil, err
		}
		var phys algebra.Node
		tr.call("rewrite.plan", beside, func() { phys, err = r.eng.Plan(plan, engine.GMDJOpt) })
		if err != nil {
			return nil, opStats{}, nil, err
		}
		ent = &plancache.Entry{Plan: phys, NParams: len(args), Tables: algebra.Tables(phys), SchemaEpoch: epoch}
		tr.call("plancache.put", beside, func() { r.pc.Put(key, ent) })
	}
	var bound algebra.Node
	tr.call("plancache.bind", beside, func() { bound, err = algebra.BindParams(ent.Plan, args) })
	if err != nil {
		return nil, opStats{}, nil, err
	}
	for _, name := range ent.Tables {
		t, err := r.cat.Table(name)
		if err != nil {
			return nil, opStats{}, nil, err
		}
		if v := t.Version(); v != r.segVersions[name] {
			// The program packs each table version once, inside a
			// checkpoint or the first query to need it; time that build
			// beside the query on the same rows.
			tr.call("storage.segment_build", true, func() { storage.BuildSegment(name, t.Rel) })
			r.segVersions[name] = v
		}
		tr.call("storage.segment", beside, func() { t.Segment() })
	}
	pp := r.eng.PhysicalFromPlanned(bound, engine.GMDJOpt)
	pp.SetText(q)
	pp.CollectStats()
	var sink engine.RelationSink
	run := tr.call("engine.run", beside, func() { err = pp.Run(context.Background(), &sink) })
	if err != nil {
		return nil, opStats{}, nil, err
	}
	tr.statsSpans(run, pp.Stats())
	st := readStats(pp.Stats())
	if st.packedHash && r.w.hashTable != "" {
		// The GMDJ hashes the detail key inside its scan; time the same
		// call on the same segment beside the query.
		t, err := r.cat.Table(r.w.hashTable)
		if err != nil {
			return nil, opStats{}, nil, err
		}
		seg := t.Segment()
		col, err := seg.Schema.Find("", r.w.hashCol)
		if err != nil {
			return nil, opStats{}, nil, err
		}
		tr.call("storage.keyhash", true, func() { seg.KeyHashes([]int{col}) })
	}
	return sink.Rel, st, ent.Plan, nil
}

// serve sends q through the olapd handler over the loopback connection
// and records the client round trip with the server's handler time as
// its child.
func (r *replay) serve(q string, beside bool) (httpResult, error) {
	var res httpResult
	var err error
	c := r.s.clients[0]
	idx := r.tr.call("serve.roundtrip", beside, func() { res, err = c.query(q) })
	start, end := r.s.e.lastHandler()
	r.tr.child(idx, "serve.handler", int64(start.Sub(r.tr.t0)), int64(end.Sub(r.tr.t0)), false)
	r.serveBytes += int64(res.bytes)
	r.serveRows += int64(len(res.rows))
	if res.status != http.StatusOK {
		r.serveRejected++
	}
	return res, err
}

// write replays one acknowledged write: the Insert (as gmdj.DB.Insert
// does it) and the engine checkpoint.
func (r *replay) write() error {
	rows, n := r.gen.batch()
	r.logical += n
	t, err := r.cat.Table(r.w.writeTable)
	if err != nil {
		return err
	}
	r.tr.beginOp("commit")
	defer r.tr.endOp()
	r.tr.call("storage.insert", false, func() { appendRows(t, rows) })
	r.tr.call("storage.checkpoint", false, func() { _, err = r.eng.Checkpoint() })
	return err
}

// planShape counts the GMDJ operators in a physical plan and the
// subqueries coalesced into a shared detail scan (conditions beyond the
// first on each GMDJ).
func planShape(n algebra.Node) (gmdjOps, coalesced int) {
	if g, ok := n.(*algebra.GMDJ); ok {
		gmdjOps++
		coalesced += len(g.Conds) - 1
	}
	for _, ch := range n.Children() {
		a, b := planShape(ch)
		gmdjOps += a
		coalesced += b
	}
	return gmdjOps, coalesced
}

// serveSampleEvery: on workloads not served over HTTP, every
// serveSampleEvery-th replayed query also goes through the handler, so
// the serve layer is measured on every workload.
const serveSampleEvery = 4

// storageStats snapshots the replay engine's durable-store counters.
func (r *replay) storageStats() storage.DiskStoreStats {
	if ds := r.eng.DiskStore(); ds != nil {
		return ds.Stats(r.cat)
	}
	return storage.DiskStoreStats{}
}

// markWrites starts the window over which write amplification and
// segments written are counted.
func (r *replay) markWrites() {
	r.writeBase = r.storageStats()
	r.logicalBase = r.logical
}

// commitDataset makes a read-only workload's loaded dataset durable: it
// attaches the data dir to the replay engine and checkpoints. The
// counted write window is that checkpoint, which writes the whole
// dataset.
func (r *replay) commitDataset() error {
	if _, err := r.eng.SetDataDir(r.dataDir); err != nil {
		return err
	}
	r.markWrites()
	r.logicalBase = 0
	var err error
	r.tr.beginOp("commit")
	r.tr.call("storage.checkpoint", false, func() { _, err = r.eng.Checkpoint() })
	r.tr.endOp()
	return err
}

// recoverOnce reopens the replay's data dir into a fresh catalog.
func (r *replay) recoverOnce() error {
	eng := engine.New(storage.NewCatalog())
	defer eng.Close()
	var rep *storage.RecoveryReport
	var err error
	r.tr.beginOp("recovery")
	r.tr.call("storage.recovery", false, func() { rep, err = eng.SetDataDir(r.dataDir) })
	r.tr.endOp()
	if err != nil {
		return err
	}
	return checkRecovery(len(rep.Quarantined), rep.SkippedManifests)
}

// selfCheckOps is how many operations the self-check replays: enough to
// cover every query class of every pool, and on serve-short one new
// template.
const selfCheckOps = 8

// selfCheck replays the first selfCheckOps operations (with their
// writes) on a fresh replay and returns the work counters they
// accumulated.
func selfCheck(s *session, dir string) (counters, error) {
	r, err := newReplay(s, dir)
	if err != nil {
		return counters{}, err
	}
	defer r.close()
	r.tr.warm = true
	for i := 0; i < selfCheckOps; i++ {
		if s.w.writes() {
			if err := r.write(); err != nil {
				return counters{}, err
			}
		}
		q, k := s.opText(i)
		r.query("self-check: "+q, q, k, false)
	}
	r.cnt.PlanMisses = r.pc.Stats().Misses
	r.cnt.SegmentsWritten = r.storageStats().SegmentsWritten
	return r.cnt, nil
}

func tracedRun(w *workload, seed int64, d time.Duration, tmp, out string, res *result) error {
	phase := res.phaseTimer()
	s, err := open(w, seed, tmp)
	if err != nil {
		return err
	}
	defer s.close()
	if !w.http {
		if err := s.e.listen(); err != nil {
			return err
		}
		s.clients = []*client{newClient(s.e.addr)}
	}
	phase("setup_and_oracle")
	s.warm()
	phase("warm")
	untraced := s.loop(d / 2)
	phase("untraced_loop")

	r, err := newReplay(s, filepath.Join(tmp, "replay"))
	if err != nil {
		return err
	}
	defer r.close()
	r.tr.warm = true
	for k, q := range s.pool {
		r.query("replay warm-up: "+q, q, k, w.http)
	}
	r.tr.warm = false
	phase("replay_setup")
	ev0 := r.pc.Stats().Evictions
	if w.writes() {
		r.markWrites()
	}
	for i, start := 0, time.Now(); time.Since(start) < d/2; i++ {
		if w.writes() {
			s.tally.record("replayed commit", r.write())
		}
		q, k := s.opText(i)
		r.query("replay: "+q, q, k, w.http || i%serveSampleEvery == 0)
	}
	pcs := r.pc.Stats()
	evictions := pcs.Evictions - ev0
	res.Samples["plancache_entries"] = pcs.Entries
	res.Samples["plancache_bytes"] = int(pcs.Bytes)
	phase("traced_loop")
	if !w.writes() {
		if err := r.commitDataset(); err != nil {
			return fmt.Errorf("replay dataset commit: %w", err)
		}
	}
	r.writeStats = r.storageStats()
	s.tally.record("replay recovery", r.recoverOnce())
	phase("replay_storage")

	a, err := selfCheck(s, filepath.Join(tmp, "check-a"))
	if err != nil {
		return err
	}
	b, err := selfCheck(s, filepath.Join(tmp, "check-b"))
	if err != nil {
		return err
	}
	res.Counters = a.named()
	for name, v := range b.named() {
		if res.Counters[name] != v {
			res.Notes = append(res.Notes, fmt.Sprintf("self-check: %s does not repeat (%d vs %d)", name, res.Counters[name], v))
		}
	}
	phase("self_check")
	if w.writes() {
		odb, err := s.verify()
		if err != nil {
			return err
		}
		_ = odb.Close()
		phase("verify")
	}

	spanFile := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
	raw, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{w.name, seed, r.tr.spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(spanFile, raw, 0o644); err != nil {
		return err
	}
	res.SpanFile = spanFile
	res.Attempted, res.Failed, res.Failures = s.tally.attempted, s.tally.failed, s.tally.failures
	setPerLayer(res, r, untraced, evictions)
	return nil
}
