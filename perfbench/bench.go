package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	gmdj "github.com/olaplab/gmdj"
	"github.com/olaplab/gmdj/internal/serve"
)

// env is one set-up instance of a workload: the DB under test, its
// loopback server when the workload is served over HTTP, and the
// durable directory when it writes.
type env struct {
	w       *workload
	db      *gmdj.DB
	dataDir string
	// logical is the user-data byte count loaded and written so far.
	logical int64
	gen     *writeGen

	hs      *http.Server
	addr    string
	serveWG sync.WaitGroup

	// handlerMu guards the start and end of the last request the
	// server's handler finished (read by the single-client replay).
	handlerMu                sync.Mutex
	handlerStart, handlerEnd time.Time
}

// countingLoader sums the logical bytes a generator loads.
type countingLoader struct {
	loader
	bytes int64
}

func (c *countingLoader) insert(table string, rows [][]any) error {
	for _, r := range rows {
		c.bytes += logicalBytes(r)
	}
	return c.loader.insert(table, rows)
}

// setUp builds a ready DB: data generated and loaded, indexes built,
// the initial checkpoint taken (writing workloads) and the server
// listening (served workloads). This is what setup_s times.
func setUp(w *workload, seed int64, dataDir string) (*env, error) {
	e := &env{w: w, db: gmdj.Open(w.dbOptions()...), gen: newWriteGen(w, seed)}
	if err := e.fill(seed, dataDir); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// fill is setUp's work on a freshly opened DB.
func (e *env) fill(seed int64, dataDir string) error {
	w := e.w
	if w.writes() {
		e.dataDir = dataDir
		if _, err := e.db.SetDataDir(dataDir); err != nil {
			return fmt.Errorf("opening data dir: %w", err)
		}
	}
	cl := &countingLoader{loader: dbLoader{e.db}}
	if err := w.load(cl, seed); err != nil {
		return fmt.Errorf("loading %s: %w", w.name, err)
	}
	e.logical = cl.bytes
	if w.writes() {
		if _, err := e.db.Checkpoint(); err != nil {
			return fmt.Errorf("initial checkpoint: %w", err)
		}
	}
	if w.http {
		return e.listen()
	}
	return nil
}

// listen serves the olapd handler on a loopback port.
func (e *env) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listening on loopback: %w", err)
	}
	h := serve.NewServer(e.db, serve.Config{}).Handler()
	e.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		e.handlerMu.Lock()
		e.handlerStart, e.handlerEnd = start, end
		e.handlerMu.Unlock()
	})}
	e.addr = ln.Addr().String()
	e.serveWG.Add(1)
	go func() {
		defer e.serveWG.Done()
		_ = e.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return nil
}

// lastHandler returns when the handler began and finished the last
// request it served.
func (e *env) lastHandler() (start, end time.Time) {
	e.handlerMu.Lock()
	defer e.handlerMu.Unlock()
	return e.handlerStart, e.handlerEnd
}

// close stops the server (waiting for its goroutine) and closes the DB.
func (e *env) close() {
	if e.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = e.hs.Shutdown(ctx)
		cancel()
		e.serveWG.Wait()
		e.hs = nil
	}
	_ = e.db.Close()
}

// writeGen generates a writing workload's batches in order. Every
// generator of one seed yields the same batches, so an oracle DB can
// replay the writes the DB under test took.
type writeGen struct {
	w       *workload
	rng     *rand.Rand
	rows    int // rows generated so far: the next row's index
	batches int // batches generated so far
}

func newWriteGen(w *workload, seed int64) *writeGen {
	return &writeGen{w: w, rng: rand.New(rand.NewSource(seed ^ 0x5eed))}
}

// batch generates the next batch and returns it with its logical bytes.
func (g *writeGen) batch() ([][]any, int64) {
	rows := make([][]any, g.w.writeBatch)
	var n int64
	for i := range rows {
		rows[i] = g.w.writeRow(g.rng, g.rows)
		g.rows++
		n += logicalBytes(rows[i])
	}
	g.batches++
	return rows, n
}

// client is one closed-loop HTTP client holding one keep-alive
// connection.
type client struct {
	hc   *http.Client
	url  string
	body bytes.Buffer
}

func newClient(addr string) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		url: "http://" + addr + "/query",
	}
}

// queryResponse is the subset of olapd's success body the client reads.
type queryResponse struct {
	Rows [][]any `json:"rows"`
}

// httpResult is one request's outcome as the client saw it.
type httpResult struct {
	status int
	bytes  int
	rows   [][]any
}

func (c *client) query(sql string) (httpResult, error) {
	c.body.Reset()
	if err := json.NewEncoder(&c.body).Encode(map[string]string{"sql": sql, "strategy": "gmdj-opt"}); err != nil {
		return httpResult{}, err
	}
	resp, err := c.hc.Post(c.url, "application/json", &c.body)
	if err != nil {
		return httpResult{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return httpResult{}, err
	}
	r := httpResult{status: resp.StatusCode, bytes: len(raw)}
	if resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var body queryResponse
	if err := dec.Decode(&body); err != nil {
		return r, fmt.Errorf("decoding response: %w", err)
	}
	r.rows = body.Rows
	return r, nil
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// failure is one failed operation, reported with its query text.
type failure struct {
	Op     string `json:"op"`
	Reason string `json:"reason"`
}

// tally counts attempted and failed operations across clients.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []failure
}

// maxReportedFailures bounds the failure list kept for the report; the
// count is always exact.
const maxReportedFailures = 20

func (t *tally) record(op string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.failures) < maxReportedFailures {
		t.failures = append(t.failures, failure{Op: op, Reason: err.Error()})
	}
}

// errMismatch marks a result whose digest differs from the oracle's.
var errMismatch = errors.New("result differs from the Native oracle")

func checkDigest(got, want digest) error {
	if got != want {
		return fmt.Errorf("%w: got %d rows (sum %x), want %d rows (sum %x)", errMismatch, got.Rows, got.Sum, want.Rows, want.Sum)
	}
	return nil
}

// heapSampler tracks the largest GC heap goal without stopping the
// world. The goal is the heap size at which the runtime starts a
// collection, so the heap peaks just below it; unlike a sampled heap
// size it does not depend on where in a GC cycle the sample falls.
type heapSampler struct {
	s   []metrics.Sample
	max uint64
}

func newHeapSampler() *heapSampler {
	return &heapSampler{s: []metrics.Sample{{Name: "/gc/heap/goal:bytes"}}}
}

func (h *heapSampler) sample() {
	metrics.Read(h.s)
	if v := h.s[0].Value.Uint64(); v > h.max {
		h.max = v
	}
}

// percentile is the nearest-rank percentile of sorted samples, with the
// number of samples strictly beyond it.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	rank := int(float64(len(sorted))*p + 0.999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1], len(sorted) - rank
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// memStats reads the runtime's allocation and GC-pause totals.
func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}
