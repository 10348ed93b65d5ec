package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"autopart/internal/apps/builtins"
	"autopart/pkg/autopart"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(newServer(autopart.NewService(autopart.ServiceOptions{MaxConcurrent: 4}), 32))
	t.Cleanup(srv.Close)
	return srv
}

func postCompile(t *testing.T, base string, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(base+"/v1/compile", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode, out
}

// TestCompileAndQuery drives the full daemon flow: compile a builtin,
// then query its program view and check it matches a direct in-process
// compile of the same source.
func TestCompileAndQuery(t *testing.T) {
	srv := newTestServer(t)

	code, res := postCompile(t, srv.URL, `{"builtin": "spmv"}`)
	if code != http.StatusOK {
		t.Fatalf("compile: status %d: %v", code, res)
	}
	id := res["id"].(string)
	if id == "" || res["launches"].(float64) == 0 {
		t.Fatalf("compile response incomplete: %v", res)
	}

	code, q := getJSON(t, srv.URL+"/v1/results/"+id+"/program")
	if code != http.StatusOK {
		t.Fatalf("query: status %d: %v", code, q)
	}

	// The daemon's program view must match a direct compile.
	src, _, _ := builtins.Source("spmv")
	c, err := autopart.Compile(src, autopart.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := c.DPLProgram().Stmts
	rows := q["rows"].([]any)
	if len(rows) != len(want) {
		t.Fatalf("program view has %d rows, direct compile has %d statements", len(rows), len(want))
	}
	for i, raw := range rows {
		row := raw.(map[string]any)
		if row["text"] != want[i].String() {
			t.Errorf("row %d: %q, want %q", i, row["text"], want[i].String())
		}
	}
}

// TestQueryParameters checks projection, filtering, and pagination
// through the HTTP layer.
func TestQueryParameters(t *testing.T) {
	srv := newTestServer(t)
	_, res := postCompile(t, srv.URL, `{"builtin": "circuit"}`)
	id := res["id"].(string)

	code, q := getJSON(t, srv.URL+"/v1/results/"+id+"/constraints?fields=index,kind&filter=kind=DISJ&limit=2")
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, q)
	}
	rows := q["rows"].([]any)
	if len(rows) == 0 || len(rows) > 2 {
		t.Fatalf("limit 2 returned %d rows", len(rows))
	}
	for _, raw := range rows {
		row := raw.(map[string]any)
		if len(row) != 2 || row["kind"] != "DISJ" {
			t.Errorf("projection/filter violated: %v", row)
		}
	}
	if total := q["total"].(float64); total >= 2 && q["next_offset"].(float64) != 2 {
		t.Errorf("total %v but next_offset %v", total, q["next_offset"])
	}

	// Unknown view and field map to 400; unknown id to 404.
	if code, _ := getJSON(t, srv.URL+"/v1/results/"+id+"/nope"); code != http.StatusBadRequest {
		t.Errorf("unknown view: status %d, want 400", code)
	}
	if code, _ := getJSON(t, srv.URL+"/v1/results/"+id+"/program?fields=bogus"); code != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", code)
	}
	if code, _ := getJSON(t, srv.URL+"/v1/results/zzz/program"); code != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", code)
	}
}

// TestCompileErrors covers request validation and compile failures.
func TestCompileErrors(t *testing.T) {
	srv := newTestServer(t)
	if code, _ := postCompile(t, srv.URL, `{}`); code != http.StatusBadRequest {
		t.Errorf("empty request: status %d, want 400", code)
	}
	if code, _ := postCompile(t, srv.URL, `{"builtin": "nope"}`); code != http.StatusBadRequest {
		t.Errorf("unknown builtin: status %d, want 400", code)
	}
	if code, _ := postCompile(t, srv.URL, `{"source": "x", "builtin": "spmv"}`); code != http.StatusBadRequest {
		t.Errorf("both source and builtin: status %d, want 400", code)
	}
	code, res := postCompile(t, srv.URL, `{"source": "region R { v: scalar }\nfor i in Q { }\n"}`)
	if code != http.StatusUnprocessableEntity {
		t.Errorf("bad program: status %d, want 422", code)
	}
	if res["error"] == nil {
		t.Errorf("bad program response lacks error: %v", res)
	}
}

// TestConcurrentCompiles hits the daemon from many clients at once and
// checks the stats endpoint adds up afterwards.
func TestConcurrentCompiles(t *testing.T) {
	srv := newTestServer(t)
	names := builtins.Names()
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := fmt.Sprintf(`{"builtin": %q}`, names[i%len(names)])
			resp, err := http.Post(srv.URL+"/v1/compile", "application/json", bytes.NewReader([]byte(body)))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	code, st := getJSON(t, srv.URL+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if got := st["compiles"].(float64); got != clients {
		t.Errorf("stats compiles = %v, want %d", got, clients)
	}
	if st["retained_results"].(float64) != clients {
		t.Errorf("retained_results = %v, want %d", st["retained_results"], clients)
	}

	code, list := getJSON(t, srv.URL+"/v1/results")
	if code != http.StatusOK || len(list["results"].([]any)) != clients {
		t.Errorf("results list: status %d, %v", code, list)
	}
}

// TestResultEviction bounds the store.
func TestResultEviction(t *testing.T) {
	srv := httptest.NewServer(newServer(autopart.NewService(autopart.ServiceOptions{}), 2))
	defer srv.Close()
	var last string
	for i := 0; i < 4; i++ {
		_, res := postCompile(t, srv.URL, `{"builtin": "spmv"}`)
		last = res["id"].(string)
	}
	_, list := getJSON(t, srv.URL+"/v1/results")
	results := list["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("retained %d results, want 2", len(results))
	}
	if got := results[1].(map[string]any)["id"]; got != last {
		t.Errorf("newest retained id %v, want %v", got, last)
	}
	if code, _ := getJSON(t, srv.URL+"/v1/results/r1/program"); code != http.StatusNotFound {
		t.Errorf("evicted result still queryable: status %d", code)
	}
}

// TestHealthz pins the liveness endpoint.
func TestHealthz(t *testing.T) {
	srv := newTestServer(t)
	code, body := getJSON(t, srv.URL+"/v1/healthz")
	if code != http.StatusOK || body["status"] != "ok" {
		t.Errorf("healthz: %d %v", code, body)
	}
}

// TestIncrementalKeyRouting drives the recompile flow: a second compile
// under the same key reuses the keyed session's retained artifacts, and
// its result is byte-identical to the keyless compile of the same
// source (checked via the program view).
func TestIncrementalKeyRouting(t *testing.T) {
	srv := newTestServer(t)

	code, res := postCompile(t, srv.URL, `{"builtin": "spmv", "key": "edit-loop"}`)
	if code != http.StatusOK {
		t.Fatalf("compile: status %d: %v", code, res)
	}
	if res["key"] != "edit-loop" {
		t.Fatalf("response key = %v, want edit-loop", res["key"])
	}
	code, res2 := postCompile(t, srv.URL, `{"builtin": "spmv", "key": "edit-loop"}`)
	if code != http.StatusOK {
		t.Fatalf("recompile: status %d: %v", code, res2)
	}
	code, keyless := postCompile(t, srv.URL, `{"builtin": "spmv"}`)
	if code != http.StatusOK {
		t.Fatalf("keyless compile: status %d: %v", code, keyless)
	}

	_, incView := getJSON(t, fmt.Sprintf("%s/v1/results/%s/program", srv.URL, res2["id"]))
	_, coldView := getJSON(t, fmt.Sprintf("%s/v1/results/%s/program", srv.URL, keyless["id"]))
	if fmt.Sprint(incView["rows"]) != fmt.Sprint(coldView["rows"]) {
		t.Errorf("incremental program view differs from keyless:\n%v\n%v", incView["rows"], coldView["rows"])
	}

	_, stats := getJSON(t, srv.URL+"/v1/stats")
	incr := stats["incremental"].(map[string]any)
	if incr["compiles"].(float64) != 2 {
		t.Errorf("incremental compiles = %v, want 2", incr["compiles"])
	}
	if incr["clean_loops"].(float64) == 0 {
		t.Errorf("recompile reused no loops: %v", incr)
	}
	if incr["sessions"].(float64) != 1 {
		t.Errorf("incremental sessions = %v, want 1", incr["sessions"])
	}
}

// TestFilterValueWithAmpersand queries one result twice: with the two
// filters expr=equal(Y) and symbol=P1 (one row), then with the single
// filter expr="equal(Y)&symbol=P1" (no row). Joined with an unescaped
// '&', both filter sets read the same, so the second answer must come
// from its own parameters, not from anything keyed on that string.
func TestFilterValueWithAmpersand(t *testing.T) {
	srv := newTestServer(t)

	code, res := postCompile(t, srv.URL, `{"builtin": "spmv"}`)
	if code != http.StatusOK {
		t.Fatalf("compile: status %d: %v", code, res)
	}
	base := fmt.Sprintf("%s/v1/results/%s/program?", srv.URL, res["id"])
	for _, tc := range []struct {
		query string
		rows  int
	}{
		{"filter=expr%3Dequal(Y)&filter=symbol%3DP1", 1},
		{"filter=expr%3Dequal(Y)%26symbol%3DP1", 0},
	} {
		code, q := getJSON(t, base+tc.query)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %v", tc.query, code, q)
		}
		if rows := q["rows"].([]any); len(rows) != tc.rows {
			t.Errorf("%s: %d rows, want %d: %v", tc.query, len(rows), tc.rows, rows)
		}
	}
}
