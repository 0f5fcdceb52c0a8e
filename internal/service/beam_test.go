package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	hypar "repro"
)

// wideForkJSON renders an inline DAG whose partition frontier equals
// branches: one stem fanning into parallel convs that one FC joins.
func wideForkJSON(branches int) string {
	var b strings.Builder
	b.WriteString(`{"name":"svc-wide","input":{"h":8,"w":8,"c":3},"layers":[`)
	b.WriteString(`{"name":"stem","type":"conv","k":3,"pad":1,"cout":4}`)
	ins := make([]string, 0, branches)
	for i := 0; i < branches; i++ {
		name := fmt.Sprintf("b%02d", i)
		fmt.Fprintf(&b, `,{"name":%q,"type":"conv","k":3,"pad":1,"cout":4,"inputs":["stem"]}`, name)
		ins = append(ins, fmt.Sprintf("%q", name))
	}
	fmt.Fprintf(&b, `,{"name":"join","type":"fc","cout":10,"inputs":[%s]}]}`, strings.Join(ins, ","))
	return b.String()
}

// TestBeamSearchRequest drives searchMethod through /v1/plan: the exact
// search refuses a frontier-width-18 DAG, the same request with
// "searchMethod":"beam" plans it.
func TestBeamSearchRequest(t *testing.T) {
	_, ts, _ := newTestServer(t)
	model := wideForkJSON(18)

	code, body := postJSON(t, ts.URL+"/v1/plan",
		`{"model":`+model+`,"config":{"batch":8,"levels":2}}`)
	if code == http.StatusOK {
		t.Fatalf("exact search planned a width-18 frontier: %s", body)
	}

	code, body = postJSON(t, ts.URL+"/v1/plan",
		`{"model":`+model+`,"config":{"batch":8,"levels":2,"searchMethod":"beam"}}`)
	if code != http.StatusOK {
		t.Fatalf("beam plan: status %d: %s", code, body)
	}
	var got planResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Plan.Layers) != 20 {
		t.Fatalf("beam plan covers %d layers, want 20", len(got.Plan.Layers))
	}
	for _, l := range got.Plan.Layers {
		if len(l.Assign) != 2 {
			t.Errorf("layer %s assignment %q, want 2 levels", l.Name, l.Assign)
		}
	}

	// An unknown method or a bad width must answer 400, not 500.
	for _, cfg := range []string{
		`{"searchMethod":"quantum"}`,
		`{"searchMethod":"beam","beamWidth":-3}`,
	} {
		if code, body := postJSON(t, ts.URL+"/v1/plan",
			`{"zoo":"SFC","config":`+cfg+`}`); code != http.StatusBadRequest {
			t.Errorf("config %s: status %d, want 400: %s", cfg, code, body)
		}
	}
}

// TestBeamSearchHashDistinct proves the search method and beam width
// are part of the canonical request hash: the same model under exact,
// beam, and a non-default beam width must compute three times, while a
// spelled-out default ("hierarchical") coalesces with the implicit one.
func TestBeamSearchHashDistinct(t *testing.T) {
	_, ts, computes := newTestServer(t)
	reqs := []string{
		`{"zoo":"Incep-2","config":{"batch":16,"levels":2}}`,
		`{"zoo":"Incep-2","config":{"batch":16,"levels":2,"searchMethod":"beam"}}`,
		`{"zoo":"Incep-2","config":{"batch":16,"levels":2,"searchMethod":"beam","beamWidth":4}}`,
	}
	for _, r := range reqs {
		if code, body := postJSON(t, ts.URL+"/v1/evaluate", r); code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", r, code, body)
		}
	}
	if got := computes.Load(); got != 3 {
		t.Errorf("distinct search configs computed %d times, want 3", got)
	}
	// The default spelling canonicalizes away: no fourth compute.
	if code, body := postJSON(t, ts.URL+"/v1/evaluate",
		`{"zoo":"Incep-2","config":{"batch":16,"levels":2,"searchMethod":"hierarchical","beamWidth":9}}`); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if got := computes.Load(); got != 3 {
		t.Errorf("spelled-out default search re-computed: %d computes, want 3", got)
	}
}

// exploreLineTypes returns the "type" field of every NDJSON line of an
// explore body, with the header it carries.
func exploreLineTypes(t *testing.T, body []byte) ([]string, exploreHeaderJSON) {
	t.Helper()
	var types []string
	var header exploreHeaderJSON
	for _, line := range bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n")) {
		var typ struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &typ); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if typ.Type == "header" {
			if err := json.Unmarshal(line, &header); err != nil {
				t.Fatal(err)
			}
		}
		types = append(types, typ.Type)
	}
	return types, header
}

// TestBeamWideGraphFixedAssignmentPaths: the frontier cap guards only
// the exact graph DP, so a frontier-width-18 DAG under beam search
// answers every endpoint whose other strategies evaluate fixed
// assignments — compare and explore return complete bodies — while the
// exact search still refuses it with 400 on plan and compare.
func TestBeamWideGraphFixedAssignmentPaths(t *testing.T) {
	_, ts, _ := newTestServer(t)
	model := wideForkJSON(18)
	exact := `{"model":` + model + `,"config":{"batch":8,"levels":2}}`
	beam := `{"model":` + model + `,"config":{"batch":8,"levels":2,"searchMethod":"beam"}`

	for _, path := range []string{"/v1/plan", "/v1/compare"} {
		if code, body := postJSON(t, ts.URL+path, exact); code != http.StatusBadRequest {
			t.Errorf("exact %s: status %d, want 400: %s", path, code, body)
		}
	}

	if code, body := postJSON(t, ts.URL+"/v1/evaluate", beam+`,"strategy":"dp"}`); code != http.StatusOK {
		t.Errorf("beam evaluate dp: status %d: %s", code, body)
	}

	code, body := postJSON(t, ts.URL+"/v1/compare", beam+`}`)
	if code != http.StatusOK {
		t.Fatalf("beam compare: status %d: %s", code, body)
	}
	var cmp compareResponse
	if err := json.Unmarshal(body, &cmp); err != nil {
		t.Fatal(err)
	}
	for _, st := range hypar.Strategies {
		r, ok := cmp.Results[st.String()]
		if !ok || len(r.Plan.Layers) != 20 || r.Stats.StepSeconds <= 0 {
			t.Errorf("beam compare %v: incomplete result %+v", st, r.Plan)
		}
	}

	const k = 3
	code, body = postJSON(t, ts.URL+"/v1/explore",
		beam+`,"free":[{"level":0,"layer":0},{"level":0,"layer":5},{"level":1,"layer":19}]}`)
	if code != http.StatusOK {
		t.Fatalf("beam explore: status %d: %s", code, body)
	}
	types, header := exploreLineTypes(t, body)
	if len(types) != 1<<k+2 || types[0] != "header" || types[len(types)-1] != "summary" || header.Points != 1<<k {
		t.Fatalf("beam explore body: lines %v, header %+v", types, header)
	}
	for _, typ := range types[1 : len(types)-1] {
		if typ != "point" {
			t.Fatalf("beam explore body: lines %v", types)
		}
	}
}

// TestExploreRefusalBeforeStream: a sweep whose planning fails before
// the first point answers with the failure's real status — /v1/explore
// a 400 with a JSON error body, not a 200 with a header-only stream —
// and the same request as a job fails without a result, leaving no
// cached stream behind for a later /v1/explore to replay.
func TestExploreRefusalBeforeStream(t *testing.T) {
	_, ts, _ := newTestServer(t)
	body := `{"model":` + wideForkJSON(18) + `,"config":{"batch":8,"levels":2},"free":[{"level":0,"layer":0}]}`

	resp, err := http.Post(ts.URL+"/v1/explore", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("exact explore of a too-wide graph: status %d, want 400: %s", resp.StatusCode, b)
	}
	var e errorResponse
	if err := json.Unmarshal(b, &e); err != nil || !strings.Contains(e.Error, "frontier") {
		t.Errorf("error body %q (%v), want a frontier refusal", b, err)
	}

	st := submitJob(t, ts.URL, body)
	fin := waitJob(t, ts.URL, st.ID)
	if fin.Status != jobStateFailed || fin.Done != 0 || fin.Result != "" || !strings.Contains(fin.Error, "frontier") {
		t.Errorf("job status %+v, want failed with a frontier refusal and no points", fin)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/result", nil); code != http.StatusConflict {
		t.Errorf("failed job result: status %d, want 409", code)
	}

	if code, b := postJSON(t, ts.URL+"/v1/explore", body); code != http.StatusBadRequest {
		t.Errorf("explore after the failed job: status %d, want 400: %s", code, b)
	}
}
