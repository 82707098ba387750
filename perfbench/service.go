package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"rotorring"
	"rotorring/internal/cluster"
	"rotorring/internal/engine"
	"rotorring/internal/service"
	"rotorring/specjson"
)

// servicePoolWorkers is the rotord local pool size.
const servicePoolWorkers = 2

// rotord is an in-process rotord on a fresh spool, served on a loopback
// listener, optionally with in-process cluster workers registered.
type rotord struct {
	srv    *service.Server
	hs     *http.Server
	url    string
	spool  string
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// startRotord opens a server over spool, a fresh directory that close
// removes.
func startRotord(spool string, workers int) (*rotord, error) {
	srv, err := service.Open(spool, service.Workers(servicePoolWorkers))
	if err != nil {
		os.RemoveAll(spool)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(spool)
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	registered := make(chan struct{}, workers)
	handler := notifyRegistered(srv.Handler(), registered)
	r := &rotord{srv: srv, hs: &http.Server{Handler: handler}, url: "http://" + ln.Addr().String(), spool: spool, cancel: cancel}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		_ = r.hs.Serve(ln) // returns http.ErrServerClosed from close
	}()
	for i := 0; i < workers; i++ {
		w := cluster.NewWorker(cluster.WorkerOptions{
			Coordinator: r.url, Name: fmt.Sprintf("w%d", i+1), Parallel: 1, Version: "perfbench",
		})
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			_ = w.Run(ctx) // ends with ctx
		}()
	}
	if err := r.waitWorkers(workers, registered); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// registerPath is the cluster wire protocol's registration endpoint.
const registerPath = "/v1/cluster/register"

// notifyRegistered passes every request to h and, after each successful
// worker registration, sends on registered if it has room. Other requests,
// the row streams among them, reach h with their ResponseWriter untouched.
func notifyRegistered(h http.Handler, registered chan<- struct{}) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != registerPath {
			h.ServeHTTP(w, req)
			return
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h.ServeHTTP(sw, req)
		if sw.code == http.StatusOK {
			select {
			case registered <- struct{}{}:
			default:
			}
		}
	})
}

// statusWriter records the status code a handler writes.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// waitWorkers waits until n registrations have succeeded, then asks
// /healthz, polling it until it answers and reports n workers. Waiting on
// the registrations themselves rather than polling from the start keeps
// the set-up time free of poll intervals.
func (r *rotord) waitWorkers(n int, registered <-chan struct{}) error {
	end := time.Now().Add(20 * time.Second)
	timeout := time.NewTimer(time.Until(end))
	defer timeout.Stop()
	for i := 0; i < n; i++ {
		select {
		case <-registered:
		case <-timeout.C:
			return fmt.Errorf("rotord never reported %d registered workers", n)
		}
	}
	for time.Now().Before(end) {
		var health struct {
			Workers int `json:"workers"`
		}
		if code, err := getJSON(http.DefaultClient, r.url+"/healthz", &health); err == nil && code == http.StatusOK && health.Workers >= n {
			return nil
		}
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("rotord never reported %d registered workers", n)
}

// close stops the workers, the listener and the server, waits for every
// goroutine it started, and removes the spool.
func (r *rotord) close() {
	r.cancel()
	r.hs.Close()
	r.srv.Close()
	r.wg.Wait()
	http.DefaultClient.CloseIdleConnections()
	os.RemoveAll(r.spool)
}

func getJSON(c *http.Client, url string, v any) (int, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
}

// serviceSpec is the grid of the service workloads' sweeps; replicas
// and sizes vary per workload.
func serviceSpec(seed uint64, sizes []int, replicas int, tiny bool) rotorring.SweepSpec {
	s := rotorring.SweepSpec{
		Sizes:      sizes,
		Agents:     []int{2, 4, 8, 16},
		Placements: []rotorring.PlacementPolicy{rotorring.PlaceSingleNode, rotorring.PlaceEqualSpacing, rotorring.PlaceRandom},
		Pointers:   []rotorring.PointerPolicy{rotorring.PointerZero, rotorring.PointerNegative, rotorring.PointerRandom},
		Replicas:   replicas,
		Seed:       seed,
	}
	if tiny {
		s.Agents = []int{2, 4}
		s.Placements = s.Placements[2:]
	}
	return s
}

// iterSeed derives the base seed of the client's pass i from the run seed.
func iterSeed(seed uint64, i int) uint64 {
	return engine.DeriveSeed(seed, uint64(i)+1)
}

// sweepRecord is one submitted sweep as a client saw it.
type sweepRecord struct {
	spec        rotorring.SweepSpec
	id          string
	submit      time.Duration // POST round trip
	first, last time.Duration // POST sent → first / last row line
	gaps        []float64     // ns between consecutive rows (traced only)
	hashes      []uint64
	ok          bool // 2xx answers and a complete stream
}

// client is a closed-loop HTTP client of rotord: it sends the next request
// only after the previous one completed.
type client struct {
	hc   *http.Client
	base string
	t    *tracer // nil: untraced
}

func newClient(base string) *client {
	return &client{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}, base: base}
}

// sweep submits spec and streams its rows to the end.
func (c *client) sweep(spec rotorring.SweepSpec, parent int, group string) sweepRecord {
	rec := sweepRecord{spec: spec}
	wire, err := specjson.Encode(spec)
	if err != nil {
		return rec
	}
	start := time.Now()
	_, endSubmit := c.t.start(parent, group, "service.submit")
	resp, err := c.hc.Post(c.base+"/v1/sweeps", "application/json", bytes.NewReader(wire))
	if err != nil {
		endSubmit()
		return rec
	}
	var st struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	endSubmit()
	rec.submit = time.Since(start)
	if err != nil || resp.StatusCode/100 != 2 {
		return rec
	}
	rec.id = st.ID

	_, endStream := c.t.start(parent, group, "service.stream")
	defer endStream()
	resp, err = c.hc.Get(c.base + "/v1/sweeps/" + st.ID + "/rows")
	if err != nil {
		return rec
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return rec
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	var prev time.Duration
	for {
		line, err := br.ReadSlice('\n')
		if errors.Is(err, io.EOF) && len(line) == 0 {
			break
		}
		if err != nil {
			return rec
		}
		now := time.Since(start)
		if len(rec.hashes) == 0 {
			rec.first = now
		} else if c.t != nil {
			rec.gaps = append(rec.gaps, float64(now-prev))
		}
		prev, rec.last = now, now
		rec.hashes = append(rec.hashes, rowHash(line))
	}
	rec.ok = true
	return rec
}

// passRecord is one client pass over its workload's sweep list.
type passRecord struct {
	wall   time.Duration
	traced bool
	sweeps []sweepRecord
}

// serviceLoad describes one HTTP workload.
type serviceLoad struct {
	workers   int // cluster workers
	rssPasses int // timed passes before the peak resident set is read
	// sweeps returns the specs of the client's pass i.
	sweeps func(i int) []rotorring.SweepSpec
}

func runServiceColdWarm(cfg config) (*outcome, error) {
	sizes := []int{24, 48}
	if cfg.tiny {
		sizes = []int{16}
	}
	return runService(cfg, serviceLoad{
		rssPasses: 150,
		sweeps: func(i int) []rotorring.SweepSpec {
			cold := serviceSpec(iterSeed(cfg.seed, i), sizes, 4, cfg.tiny)
			warm := cold
			warm.Replicas++ // every cold row is a cache hit; one replica is new
			return []rotorring.SweepSpec{cold, warm}
		},
	})
}

func runCluster(cfg config) (*outcome, error) {
	sizes := []int{256, 512}
	if cfg.tiny {
		sizes = []int{32}
	}
	return runService(cfg, serviceLoad{
		workers:   2,
		rssPasses: 30,
		sweeps: func(i int) []rotorring.SweepSpec {
			return []rotorring.SweepSpec{serviceSpec(iterSeed(cfg.seed, i), sizes, 4, cfg.tiny)}
		},
	})
}

// runService measures an HTTP workload: rotord up (and workers
// registered), one closed-loop client until the deadline, then the checks.
// Between passes it times the set-up of a throwaway server. In a traced run
// the client alternates untraced and traced passes.
func runService(cfg config, load serviceLoad) (*outcome, error) {
	out := newOutcome(cfg.log)
	out.host.sample()
	spool, err := os.MkdirTemp(cfg.workdir, "spool-")
	if err != nil {
		return nil, err
	}
	r, err := startRotord(spool, load.workers)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer r.close()
	// setup times the start of a throwaway server on a fresh spool
	// directory, made before the clock starts.
	setup := func() error {
		spool, err := os.MkdirTemp(cfg.workdir, "spool-")
		if err != nil {
			return err
		}
		var s *rotord
		err = out.setups.time(func() (err error) {
			s, err = startRotord(spool, load.workers)
			return err
		})
		if err == nil {
			s.close()
		}
		return err
	}

	cl := newClient(r.url)
	defer cl.hc.CloseIdleConnections()
	if cfg.trace {
		out.spans = newTracer()
	}
	var all []passRecord
	rss := rssAfter{passes: load.rssPasses}
	end := deadline(cfg)
	for i := 0; len(all) < 2 || time.Now().Before(end); i++ {
		runtime.GC() // as in the library workloads; set-up and calibration run on a collected heap
		if err := out.setups.burst(setup); err != nil {
			return nil, err
		}
		out.host.sample()
		traced := cfg.trace && i%2 == 1
		cl.t = nil
		if traced {
			cl.t = out.spans
		}
		group := fmt.Sprintf("pass#%d", i)
		pstart := time.Now()
		root, endRoot := cl.t.start(0, group, "pass")
		p := passRecord{traced: traced}
		for _, spec := range load.sweeps(i) {
			p.sweeps = append(p.sweeps, cl.sweep(spec, root, group))
		}
		endRoot()
		p.wall = time.Since(pstart)
		all = append(all, p)
		if err := rss.pass(len(all)); err != nil {
			return nil, err
		}
	}

	var walls, lasts []float64
	rows := 0
	for _, p := range all {
		for _, s := range p.sweeps {
			rows += len(s.hashes)
		}
		if !p.traced {
			walls = append(walls, p.wall.Seconds())
			lasts = append(lasts, float64(p.sweeps[0].last)/1e6)
		}
	}
	peak, err := rss.value()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out.log, "perfbench: %d passes, %d rows\n", len(all), rows)
	out.metrics["setup_s"] = median(out.setups.xs)
	if !cfg.trace {
		m := out.metrics
		m["sweep_s"] = median(walls)
		m["last_row_ms_p50"] = median(lasts)
		m["peak_rss_mb"] = peak
	}
	status, err := checkService(cfg, r, all, out)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := serviceLayers(r, load.workers > 0, all, status, rows, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sweepStatus is the part of GET /v1/sweeps/{id} the checks read.
type sweepStatus struct {
	State     string `json:"state"`
	Jobs      int    `json:"jobs"`
	CacheHits int    `json:"cacheHits"`
}

// checkService checks every sweep outside the timed region: its requests
// succeeded, it ended "done", and its stream equals, row for row, the
// library's rows of the same spec, none of them an error row. A traced
// run also times engine.RowBytes on those rows.
func checkService(cfg config, r *rotord, passes []passRecord, out *outcome) ([]sweepStatus, error) {
	if cfg.corrupt && len(passes[0].sweeps[0].hashes) > 0 {
		passes[0].sweeps[0].hashes[0] ^= 1
	}
	var statuses []sweepStatus
	var encode []float64 // ns per engine.RowBytes call, traced runs only
	for _, p := range passes {
		for _, s := range p.sweeps {
			out.attempted++
			if !s.ok {
				out.fail("sweep %s: request failed or stream ended early", s.id)
				continue
			}
			var st sweepStatus
			code, err := getJSON(http.DefaultClient, r.url+"/v1/sweeps/"+s.id, &st)
			if err != nil || code != http.StatusOK || st.State != "done" {
				out.fail("sweep %s: status %d %q (%v), want done", s.id, code, st.State, err)
			}
			statuses = append(statuses, st)
			lib, err := runLibrarySweep(s.spec, true)
			if err != nil {
				return nil, fmt.Errorf("library rows of sweep %s: %w", s.id, err)
			}
			out.attempted += len(lib.sink.rows)
			if len(s.hashes) != len(lib.sink.hashes) {
				out.fail("sweep %s: %d rows streamed, library has %d", s.id, len(s.hashes), len(lib.sink.hashes))
				continue
			}
			for i, b := range lib.sink.rows {
				if s.hashes[i] != lib.sink.hashes[i] {
					out.fail("sweep %s: row %d differs from the library row", s.id, i)
				}
				row := checkRow(fmt.Sprintf("sweep %s row %d", s.id, i), b, out)
				if cfg.trace {
					start := time.Now()
					if _, err := engine.RowBytes(row); err != nil {
						return nil, err
					}
					encode = append(encode, float64(time.Since(start)))
				}
			}
		}
	}
	if cfg.trace {
		out.metrics["engine.rowbytes_us"] = median(encode) / 1e3
	}
	return statuses, nil
}

// serviceLayers derives the per-layer metrics of an HTTP workload from the
// client spans and records, the sweep statuses, /metrics and the spool.
// The lease metrics are set only when cluster workers are registered.
func serviceLayers(r *rotord, workers bool, passes []passRecord, statuses []sweepStatus, rows int, out *outcome) error {
	m := out.metrics
	spans := out.spans.snapshot()
	var plain, traced, submits, gaps, firsts, lasts, warmFirsts, warmLasts []float64
	for _, p := range passes {
		if p.traced {
			traced = append(traced, p.wall.Seconds())
		} else {
			plain = append(plain, p.wall.Seconds())
		}
		for i, s := range p.sweeps {
			submits = append(submits, float64(s.submit)/1e6)
			gaps = append(gaps, s.gaps...)
			if i == 0 {
				firsts = append(firsts, float64(s.first)/1e6)
				lasts = append(lasts, float64(s.last)/1e6)
			} else {
				warmFirsts = append(warmFirsts, float64(s.first)/1e6)
				warmLasts = append(warmLasts, float64(s.last)/1e6)
			}
		}
	}
	m["trace.overhead_frac"] = median(traced)/median(plain) - 1
	m["trace.unattributed_frac"] = unattributedFrac(spans)
	m["service.submit_ms_p50"] = median(submits)
	m["service.first_row_ms_p50"] = median(firsts)
	m["service.row_gap_ms_p50"] = median(gaps) / 1e6
	if len(warmLasts) > 0 {
		m["service.warm_first_row_ms_p50"] = median(warmFirsts)
		m["service.warm_last_row_ms_p50"] = median(warmLasts)
	}
	for name, xs := range map[string][]float64{"first_row": firsts, "last_row": lasts, "warm_last_row": warmLasts} {
		if len(xs) == 0 {
			continue
		}
		v, pct, n := tail(xs)
		m["service."+name+"_ms_tail"] = v
		m["service."+name+"_ms_tail_pct"] = pct
		m["service."+name+"_ms_tail_n"] = float64(n)
	}

	prom, err := scrape(r.url + "/metrics")
	if err != nil {
		return err
	}
	hits, jobs := 0, 0
	for _, st := range statuses {
		hits += st.CacheHits
		jobs += st.Jobs
	}
	m["service.cache_hit_ratio"] = ratio(float64(hits), float64(jobs))
	if d := m["service.cache_hit_ratio"] - prom["rotord_cache_hit_ratio"]; d > 1e-3 || d < -1e-3 {
		out.fail("cache hit ratio %.4f from sweep status, %.4f from /metrics", m["service.cache_hit_ratio"], prom["rotord_cache_hit_ratio"])
	}
	_, size, err := spoolUsage(r.spool)
	if err != nil {
		return err
	}
	cacheFiles, _, err := spoolUsage(filepath.Join(r.spool, "cache"))
	if err != nil {
		return err
	}
	m["service.cache_files_per_row"] = ratio(float64(cacheFiles), float64(rows))
	m["service.spool_bytes_per_row"] = ratio(float64(size), float64(rows))

	m["cluster.jobs_local"] = prom["rotord_jobs_local_total"]
	if workers {
		remote := prom["rotord_cluster_rows_remote_total"]
		m["cluster.leases_granted"] = prom["rotord_cluster_leases_granted_total"]
		m["cluster.rows_per_lease"] = ratio(remote, prom["rotord_cluster_leases_granted_total"])
		m["cluster.lease_retries"] = prom["rotord_cluster_leases_expired_total"] + prom["rotord_cluster_leases_reassigned_total"] + prom["rotord_cluster_rows_late_total"]
		minRows := -1.0
		for k, v := range prom {
			if strings.HasPrefix(k, "rotord_cluster_worker_rows_total{") && (minRows < 0 || v < minRows) {
				minRows = v
			}
		}
		m["cluster.worker_row_share_min"] = ratio(max(0, minRows), remote)
	}

	for _, sw := range passes[0].sweeps {
		es, err := engineSpecOf(sw.spec)
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := engine.Expand(es); err != nil {
			return err
		}
		m["engine.expand_ms"] += float64(time.Since(start)) / 1e6
	}
	return nil
}

// scrape reads the unlabeled and labeled samples of a Prometheus text page.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// spoolUsage counts the regular files under dir and their bytes.
func spoolUsage(dir string) (files int, size int64, err error) {
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			files++
			size += info.Size()
		}
		return nil
	})
	return files, size, err
}
