// Command apcd is the auto-partitioning compile daemon: the pkg/autopart
// Service exposed over HTTP. Clients POST programs to compile —
// concurrent requests share one solver memo cache and one
// epoch-managed intern table, so a warm daemon answers most solver
// verdict lookups from cache — and then query the retained results
// through the structured view facade (program, constraints, launches,
// diagnostics, metrics) with field projection, filtering, and
// pagination.
//
// Usage:
//
//	apcd [-addr :8177] [-max-concurrent N] [-memo-cap N] [-intern-max N]
//	     [-results N] [-trace]
//
// API:
//
//	POST /v1/compile            {"source": "..."} or {"builtin": "spmv"};
//	                            add {"key": "myprog"} to recompile
//	                            incrementally against the previous
//	                            compile of the same key
//	GET  /v1/results            list retained results
//	GET  /v1/results/{id}       one result's summary
//	GET  /v1/results/{id}/{view}?fields=a,b&filter=kind=DISJ&limit=10&offset=0
//	GET  /v1/stats              service + cache + intern-table counters
//	GET  /v1/healthz
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"autopart/internal/apps/builtins"
	"autopart/pkg/autopart"
)

func main() {
	addr := flag.String("addr", ":8177", "listen address")
	maxConcurrent := flag.Int("max-concurrent", 0, "max concurrent compiles (0 = GOMAXPROCS)")
	memoCap := flag.Int("memo-cap", 0, "shared solver memo cache capacity in entries (0 = default)")
	internMax := flag.Int("intern-max", 0, "intern table entry budget (0 = unbounded)")
	maxResults := flag.Int("results", 128, "retained compile results before the oldest is dropped")
	trace := flag.Bool("trace", false, "emit one JSON line per compiler pass to stderr")
	flag.Parse()

	opts := autopart.ServiceOptions{
		MaxConcurrent:    *maxConcurrent,
		MemoCacheCap:     *memoCap,
		InternMaxEntries: *internMax,
	}
	if *trace {
		opts.Base.Trace = os.Stderr
	}
	srv := newServer(autopart.NewService(opts), *maxResults)

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutdownCtx)
	}()

	log.Printf("apcd listening on %s", *addr)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
}

// server is the HTTP facade over one compile service plus a bounded
// store of retained results.
type server struct {
	sv  *autopart.Service
	mux *http.ServeMux

	mu         sync.Mutex
	results    map[string]*storedResult
	order      []string // insertion order, for eviction and listing
	nextID     int
	maxResults int
}

// storedResult is one retained compile: the query facade's input plus
// summary fields.
type storedResult struct {
	ID      string
	Key     string // incremental recompile key, "" for one-shot compiles
	View    autopart.ResultView
	Elapsed time.Duration
}

func newServer(sv *autopart.Service, maxResults int) *server {
	if maxResults <= 0 {
		maxResults = 128
	}
	s := &server{
		sv:         sv,
		mux:        http.NewServeMux(),
		results:    map[string]*storedResult{},
		maxResults: maxResults,
	}
	s.mux.HandleFunc("POST /v1/compile", s.handleCompile)
	s.mux.HandleFunc("GET /v1/results", s.handleList)
	s.mux.HandleFunc("GET /v1/results/{id}", s.handleResult)
	s.mux.HandleFunc("GET /v1/results/{id}/{view}", s.handleQuery)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// compileRequest is the POST /v1/compile body. Exactly one of Source
// and Builtin must be set.
type compileRequest struct {
	Source  string `json:"source,omitempty"`
	Builtin string `json:"builtin,omitempty"`
	// Key, when set, routes the compile to the incremental session that
	// last built this key: unedited loops reuse the previous compile's
	// parse/check/normalize/infer artifacts wholesale. Results are
	// byte-identical to a keyless compile; only the latency differs.
	Key     string `json:"key,omitempty"`
	Options struct {
		DisableRelaxation           bool `json:"disable_relaxation,omitempty"`
		DisablePrivateSubPartitions bool `json:"disable_private_sub_partitions,omitempty"`
	} `json:"options"`
}

// compileResponse summarizes a stored result.
type compileResponse struct {
	ID          string   `json:"id"`
	Key         string   `json:"key,omitempty"`
	File        string   `json:"file"`
	Views       []string `json:"views"`
	Launches    int      `json:"launches"`
	Partitions  int      `json:"partitions"`
	Diagnostics int      `json:"diagnostics"`
	ElapsedUS   int64    `json:"elapsed_us"`
}

func (s *server) handleCompile(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 4<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("reading body: %v", err))
		return
	}
	var req compileRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("parsing body: %v", err))
		return
	}
	src, file := req.Source, "<input>"
	switch {
	case req.Source != "" && req.Builtin != "":
		writeError(w, http.StatusBadRequest, "set exactly one of source and builtin")
		return
	case req.Builtin != "":
		var ok bool
		if src, file, ok = builtins.Source(req.Builtin); !ok {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown builtin %q (have %s)",
				req.Builtin, strings.Join(builtins.Names(), ", ")))
			return
		}
	case req.Source == "":
		writeError(w, http.StatusBadRequest, "set one of source and builtin")
		return
	}

	log := &autopart.PassLog{}
	opts := autopart.Options{
		DisableRelaxation:           req.Options.DisableRelaxation,
		DisablePrivateSubPartitions: req.Options.DisablePrivateSubPartitions,
		Observers:                   []autopart.Observer{log},
	}
	start := time.Now()
	var c *autopart.Compiled
	if req.Key != "" {
		c, err = s.sv.CompileIncrementalWith(req.Key, src, opts)
	} else {
		c, err = s.sv.CompileWith(src, opts)
	}
	elapsed := time.Since(start)
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, map[string]any{
			"error": err.Error(),
			"file":  file,
		})
		return
	}

	res := &storedResult{
		Key:     req.Key,
		View:    autopart.ResultView{Compiled: c, File: file, Passes: log.Events},
		Elapsed: elapsed,
	}
	s.mu.Lock()
	s.nextID++
	res.ID = fmt.Sprintf("r%d", s.nextID)
	s.results[res.ID] = res
	s.order = append(s.order, res.ID)
	for len(s.order) > s.maxResults {
		delete(s.results, s.order[0])
		s.order = s.order[1:]
	}
	s.mu.Unlock()

	writeJSON(w, http.StatusOK, summarize(res))
}

func summarize(res *storedResult) compileResponse {
	c := res.View.Compiled
	return compileResponse{
		ID:          res.ID,
		Key:         res.Key,
		File:        res.View.File,
		Views:       autopart.Views(),
		Launches:    len(c.Parallel),
		Partitions:  len(c.DPLProgram().Stmts),
		Diagnostics: len(c.Diagnostics),
		ElapsedUS:   res.Elapsed.Microseconds(),
	}
}

func (s *server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	out := make([]compileResponse, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, summarize(s.results[id]))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"results": out})
}

func (s *server) lookup(w http.ResponseWriter, r *http.Request) (*storedResult, bool) {
	id := r.PathValue("id")
	s.mu.Lock()
	res, ok := s.results[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no result %q", id))
	}
	return res, ok
}

func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	if res, ok := s.lookup(w, r); ok {
		writeJSON(w, http.StatusOK, summarize(res))
	}
}

// handleQuery serves GET /v1/results/{id}/{view}. Query parameters:
// fields (comma-separated projection), filter (repeatable "field=value"
// exact matches), limit, offset.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	res, ok := s.lookup(w, r)
	if !ok {
		return
	}
	q := autopart.Query{View: r.PathValue("view")}
	params := r.URL.Query()
	if f := params.Get("fields"); f != "" {
		q.Fields = strings.Split(f, ",")
	}
	for _, kv := range params["filter"] {
		k, v, found := strings.Cut(kv, "=")
		if !found {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("filter %q is not field=value", kv))
			return
		}
		if q.Filter == nil {
			q.Filter = map[string]string{}
		}
		q.Filter[k] = v
	}
	var err error
	if q.Limit, err = intParam(params.Get("limit")); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("limit: %v", err))
		return
	}
	if q.Offset, err = intParam(params.Get("offset")); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("offset: %v", err))
		return
	}

	out, err := autopart.RunQuery(res.View, q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.sv.Stats()
	s.mu.Lock()
	retained := len(s.order)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"compiles":       st.Compiles,
		"failures":       st.Failures,
		"in_flight":      st.InFlight,
		"max_concurrent": st.MaxConcurrent,
		"memo": map[string]any{
			"hits":        st.Memo.Hits,
			"misses":      st.Memo.Misses,
			"hit_rate":    st.Memo.HitRate(),
			"node_hits":   st.Memo.NodeHits,
			"node_misses": st.Memo.NodeMisses,
			"evictions":   st.Memo.Evictions,
			"entries":     st.Memo.Entries,
		},
		"intern": map[string]any{
			"entries":    st.InternEntries,
			"generation": st.InternGeneration,
			"reclaims":   st.InternReclaims,
		},
		"incremental": map[string]any{
			"compiles":    st.IncrementalCompiles,
			"cold":        st.IncrementalCold,
			"clean_loops": st.IncrementalCleanLoops,
			"dirty_loops": st.IncrementalDirtyLoops,
			"sessions":    st.IncrementalSessions,
		},
		"retained_results": retained,
	})
}

func intParam(v string) (int, error) {
	if v == "" {
		return 0, nil
	}
	return strconv.Atoi(v)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
