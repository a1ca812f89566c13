package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	gmdj "github.com/olaplab/gmdj"
)

// repeats says how often a run repeats a measured step whose median it
// reports: at least min times, then until spent has reached budget, and
// never more than max times.
type repeats struct {
	min, max int
	budget   time.Duration
}

func (r repeats) more(done int, spent time.Duration) bool {
	return done < r.min || (done < r.max && spent < r.budget)
}

var (
	// setupRepeats: setup_s is the median; the last instance is the one
	// measured.
	setupRepeats = repeats{min: 3, max: 400, budget: 1500 * time.Millisecond}
	// datasetCommitRepeats: on a read-only workload, commit_p50/p90_ms
	// time the durable commit of the loaded dataset, repeated into fresh
	// data dirs.
	datasetCommitRepeats = repeats{min: 5, max: 400, budget: 6 * time.Second}
	// recoveryRepeats: recovery_s is the median of reopening the data
	// dir after the run.
	recoveryRepeats = repeats{min: 3, max: 400, budget: 2 * time.Second}
)

// session is one workload instance with its oracle, shared by the
// untraced loop and the traced replay.
type session struct {
	w      *workload
	seed   int64
	tmp    string
	e      *env
	setups []float64
	pool   []string
	// oracle is the Native digest of each pool instance (read-only
	// workloads).
	oracle []digest
	// pending holds a writing workload's results until verify checks
	// them after timing. A writing workload has one client.
	pending []pending
	tally   tally
	clients []*client
}

// pending is a writing workload's result awaiting its oracle check: the
// query, the digest it returned, and how many write batches its DB had
// taken when it ran.
type pending struct {
	op     string
	q      string
	writes int
	got    digest
}

// open sets the workload up setupRepeats times, keeps the last
// instance, and computes the oracle digests of a read-only workload.
func open(w *workload, seed int64, tmp string) (*session, error) {
	s := &session{w: w, seed: seed, tmp: tmp}
	var spent time.Duration
	for k := 0; ; k++ {
		dir := filepath.Join(tmp, fmt.Sprintf("data-%d", k))
		runtime.GC()
		start := time.Now()
		e, err := setUp(w, seed, dir)
		if err != nil {
			return nil, err
		}
		el := time.Since(start)
		spent += el
		s.setups = append(s.setups, el.Seconds())
		if !setupRepeats.more(k+1, spent) {
			s.e = e
			break
		}
		e.close()
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	s.pool = w.pool(rand.New(rand.NewSource(s.seed)))
	if w.http {
		for c := 0; c < w.clients; c++ {
			s.clients = append(s.clients, newClient(s.e.addr))
		}
	}
	if w.writes() {
		return s, nil
	}
	for _, q := range s.pool {
		d, err := nativeDigest(s.e.db, q)
		if err != nil {
			return nil, fmt.Errorf("oracle for %q: %w", q, err)
		}
		s.oracle = append(s.oracle, d)
		if w.http {
			// The served rows are compared against DB.Query too, here,
			// so the oracle itself is cross-checked once per instance.
			res, err := s.e.db.Query(q)
			if err == nil {
				err = checkDigest(digestRows(res.Rows), d)
			}
			s.tally.record(q, err)
		}
	}
	return s, nil
}

func (s *session) close() {
	for _, c := range s.clients {
		c.close()
	}
	if s.e != nil {
		s.e.close()
	}
}

func nativeDigest(db *gmdj.DB, q string) (digest, error) {
	res, err := db.QueryStrategy(q, gmdj.Native)
	if err != nil {
		return digest{}, err
	}
	return digestRows(res.Rows), nil
}

// opText is the text of query op i and the pool instance it checks
// against.
func (s *session) opText(i int) (string, int) {
	k := i % len(s.pool)
	if f := s.w.freshEvery; f > 0 && i%f == f-1 {
		return freshTemplate(s.pool[k], i), k
	}
	return s.pool[k], k
}

// query runs q through the workload's path (the loopback server or
// gmdj.DB) and returns the call's latency and rows.
func (s *session) query(c int, q string) (time.Duration, [][]any, error) {
	start := time.Now()
	if s.w.http {
		r, err := s.clients[c].query(q)
		return time.Since(start), r.rows, err
	}
	res, err := s.e.db.QueryStrategy(q, gmdj.GMDJOpt)
	lat := time.Since(start)
	if err != nil {
		return lat, nil, err
	}
	return lat, res.Rows, nil
}

// result records one query outcome: a failed call, or the result's
// digest checked against the oracle. A read-only workload's oracle is
// the pool instance's digest. A writing workload's result is kept, with
// the number of write batches its DB had taken, until verify.
func (s *session) result(op, q string, k, writes int, got digest, err error) {
	switch {
	case err != nil:
		s.tally.record(op, err)
	case s.w.writes():
		s.pending = append(s.pending, pending{op: op, q: q, writes: writes, got: got})
	default:
		s.tally.record(op, checkDigest(got, s.oracle[k]))
	}
}

// verify checks every pending result of a writing workload after
// timing. It loads an oracle DB from the seed, replays the write batches
// in order and runs each pending query under Native at the state the
// DB under test had. It returns the oracle DB, brought to the session
// DB's final state for the durability check.
func (s *session) verify() (*gmdj.DB, error) {
	odb := gmdj.Open()
	if err := s.w.load(dbLoader{odb}, s.seed); err != nil {
		_ = odb.Close()
		return nil, fmt.Errorf("loading oracle DB: %w", err)
	}
	gen := newWriteGen(s.w, s.seed)
	advance := func(to int) error {
		if gen.batches >= to {
			return nil
		}
		for gen.batches < to {
			rows, _ := gen.batch()
			if err := odb.Insert(s.w.writeTable, rows...); err != nil {
				return err
			}
		}
		if s.w.hashTable != s.w.writeTable {
			return nil
		}
		// DB.Insert does not maintain secondary indexes: a Native query
		// would probe the index as built before the insert and miss the
		// new rows. Rebuild it so the oracle stays exact.
		return odb.BuildHashIndex(s.w.hashTable, s.w.hashCol)
	}
	sort.SliceStable(s.pending, func(i, j int) bool { return s.pending[i].writes < s.pending[j].writes })
	for _, p := range s.pending {
		if err := advance(p.writes); err != nil {
			_ = odb.Close()
			return nil, fmt.Errorf("oracle writes: %w", err)
		}
		want, err := nativeDigest(odb, p.q)
		if err != nil {
			err = fmt.Errorf("oracle: %w", err)
		} else {
			err = checkDigest(p.got, want)
		}
		s.tally.record(p.op, err)
	}
	s.pending = nil
	if err := advance(s.e.gen.batches); err != nil {
		_ = odb.Close()
		return nil, fmt.Errorf("oracle writes: %w", err)
	}
	return odb, nil
}

// commit is one acknowledged write: Insert a batch, then Checkpoint.
func (s *session) commit(rows [][]any) (time.Duration, error) {
	start := time.Now()
	if err := s.e.db.Insert(s.w.writeTable, rows...); err != nil {
		return time.Since(start), err
	}
	_, err := s.e.db.Checkpoint()
	return time.Since(start), err
}

// warm runs every pool instance once so that plan and segment caches
// are filled before timing.
func (s *session) warm() {
	for k, q := range s.pool {
		_, rows, err := s.query(k%s.w.clients, q)
		s.result(q, q, k, s.e.gen.batches, digestRows(rows), err)
	}
}

// loopStats is what a timed closed loop measured.
type loopStats struct {
	wall      time.Duration
	queries   []float64 // latencies, ms
	commits   []float64
	heapPeak  uint64
	allocB    uint64
	gcPauseNs uint64
	ops       int
}

// loop runs the workload's closed loop for d of measured time. The
// client's own work between calls (generating a write batch, checking
// a result) is set aside: its time is taken out of the measured time,
// and on a single-client workload its allocations out of the
// allocation count (with two clients they cannot be told apart from
// the other client's; a check allocates one scratch buffer).
func (s *session) loop(d time.Duration) loopStats {
	var st loopStats
	var mu sync.Mutex
	var asideB uint64
	settle()
	m0 := memStats()
	start := time.Now()
	var excluded time.Duration
	var wg sync.WaitGroup
	for c := 0; c < s.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hs := newHeapSampler()
			var lats, commits []float64
			var skip time.Duration
			aside := func(f func()) {
				t0 := time.Now()
				if s.w.clients > 1 {
					f()
				} else {
					a0 := memStats()
					f()
					asideB += memStats().TotalAlloc - a0.TotalAlloc
				}
				skip += time.Since(t0)
			}
			for i := c; time.Since(start)-skip < d; i += s.w.clients {
				if s.w.writes() {
					var rows [][]any
					var n int64
					aside(func() { rows, n = s.e.gen.batch() })
					lat, err := s.commit(rows)
					commits = append(commits, ms(lat))
					aside(func() {
						s.e.logical += n
						s.tally.record(fmt.Sprintf("commit of %d rows into %s", s.w.writeBatch, s.w.writeTable), err)
					})
				}
				q, k := s.opText(i)
				lat, rows, err := s.query(c, q)
				lats = append(lats, ms(lat))
				aside(func() { s.result(q, q, k, s.e.gen.batches, digestRows(rows), err) })
				hs.sample()
			}
			mu.Lock()
			defer mu.Unlock()
			st.queries = append(st.queries, lats...)
			st.commits = append(st.commits, commits...)
			st.heapPeak = max(st.heapPeak, hs.max)
			excluded = max(excluded, skip)
		}(c)
	}
	wg.Wait()
	st.wall = time.Since(start) - excluded
	m1 := memStats()
	st.allocB = m1.TotalAlloc - m0.TotalAlloc - asideB
	st.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	st.ops = len(st.queries) + len(st.commits)
	sort.Float64s(st.queries)
	sort.Float64s(st.commits)
	return st
}

// durability is what the persistence phase after the loop measured.
type durability struct {
	spaceAmp   float64
	recoveries []float64 // s
}

// commitDataset makes a read-only workload's loaded dataset durable
// after the timed loop: it attaches a fresh data dir to the DB and
// checkpoints, datasetCommitRepeats times. Only Checkpoint is timed.
// The last data dir is kept for the space and recovery measurements.
// It returns the commit latencies in ms, sorted.
func (s *session) commitDataset() ([]float64, error) {
	settle()
	var lats []float64
	var spent time.Duration
	for k := 0; datasetCommitRepeats.more(k, spent); k++ {
		dir := filepath.Join(s.tmp, fmt.Sprintf("dataset-%d", k))
		if _, err := s.e.db.SetDataDir(dir); err != nil {
			return nil, err
		}
		if s.e.dataDir != "" {
			if err := os.RemoveAll(s.e.dataDir); err != nil {
				return nil, err
			}
		}
		s.e.dataDir = dir
		runtime.GC()
		start := time.Now()
		_, err := s.e.db.Checkpoint()
		el := time.Since(start)
		s.tally.record("checkpoint of the loaded dataset", err)
		if err != nil {
			return nil, err
		}
		spent += el
		lats = append(lats, ms(el))
	}
	sort.Float64s(lats)
	return lats, nil
}

// recoverCheck closes the DB, reopens its data dir recoveryRepeats
// times, and compares every recovered table with the oracle DB (a
// writing workload's verified oracle; else the DB itself, read before
// closing). A quarantined segment or a skipped manifest is a failure.
func (s *session) recoverCheck(oracle *gmdj.DB) (durability, error) {
	var out durability
	want := map[string]digest{}
	for _, t := range oracle.Tables() {
		d, err := nativeDigest(oracle, "SELECT * FROM "+t)
		if err != nil {
			return out, err
		}
		want[t] = d
	}
	n, err := dirBytes(s.e.dataDir)
	if err != nil {
		return out, err
	}
	out.spaceAmp = float64(n) / float64(s.e.logical)
	s.e.close()
	settle()
	var spent time.Duration
	for k := 0; recoveryRepeats.more(k, spent); k++ {
		runtime.GC()
		start := time.Now()
		db := gmdj.Open()
		_, err := db.SetDataDir(s.e.dataDir)
		el := time.Since(start)
		if err != nil {
			return out, fmt.Errorf("reopening data dir: %w", err)
		}
		spent += el
		out.recoveries = append(out.recoveries, el.Seconds())
		if k == 0 {
			rep := db.Recovery()
			s.tally.record("recovery report", checkRecovery(len(rep.Quarantined), rep.SkippedManifests))
			for t, d := range want {
				got, err := nativeDigest(db, "SELECT * FROM "+t)
				if err == nil {
					err = checkDigest(got, d)
				}
				s.tally.record("recovered table "+t, err)
			}
		}
		_ = db.Close()
	}
	return out, nil
}

// settle lets earlier work finish before a timed phase: a garbage
// collection, and a sync so that the phase's own writes and fsyncs do
// not queue behind write-back left by set-up or by an earlier run.
func settle() {
	runtime.GC()
	syscall.Sync()
}

// checkRecovery fails a recovery that quarantined a segment or skipped
// a manifest.
func checkRecovery(quarantined, skipped int) error {
	if quarantined > 0 || skipped > 0 {
		return fmt.Errorf("recovery quarantined %d segment(s) and skipped %d manifest(s)", quarantined, skipped)
	}
	return nil
}
