package plan

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

func postJSON(t *testing.T, srv *httptest.Server, path string, body, dst any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if dst != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestHTTPRoundTrip drives the daemon purely over its HTTP API: ticks
// advance the plan, GET /plan agrees with the tick responses, malformed and
// misaddressed requests get clean 4xx answers.
func TestHTTPRoundTrip(t *testing.T) {
	d, err := New(Config{Trace: testSpec()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	var ticked PlanView
	for i := 0; i < 3; i++ {
		if code := postJSON(t, srv, "/tick", TickRequest{}, &ticked); code != http.StatusOK {
			t.Fatalf("tick %d: status %d", i, code)
		}
	}
	if ticked.Tick != 3 {
		t.Fatalf("after 3 ticks view.Tick = %d", ticked.Tick)
	}

	resp, err := srv.Client().Get(srv.URL + "/plan")
	if err != nil {
		t.Fatal(err)
	}
	var served PlanView
	if err := json.NewDecoder(resp.Body).Decode(&served); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if served.Tick != ticked.Tick || served.Totals != ticked.Totals {
		t.Fatalf("GET /plan %+v disagrees with last tick %+v", served.Totals, ticked.Totals)
	}
	if len(served.TargetLoadKW) != len(served.Datacenters) {
		t.Fatalf("served %d targets for %d datacenters", len(served.TargetLoadKW), len(served.Datacenters))
	}

	var wi WhatIfResponse
	if code := postJSON(t, srv, "/whatif", WhatIfRequest{}, &wi); code != http.StatusOK {
		t.Fatalf("what-if status %d", code)
	}
	if wi.MonthlyUSD <= 0 || len(wi.Sites) == 0 {
		t.Fatalf("implausible what-if answer: %+v", wi)
	}

	// Error discipline.
	if code := postJSON(t, srv, "/tick", map[string]any{"green_scale": map[string]float64{"nope": 2}}, nil); code != http.StatusBadRequest {
		t.Errorf("bad scale: status %d, want 400", code)
	}
	if code := postJSON(t, srv, "/whatif", WhatIfRequest{Close: true, Session: "ghost"}, nil); code != http.StatusNotFound {
		t.Errorf("closing unknown session: status %d, want 404", code)
	}
	resp, err = srv.Client().Get(srv.URL + "/tick")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /tick: status %d, want 405", resp.StatusCode)
	}
	resp, err = srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d", resp.StatusCode)
	}
}

// TestHTTPOversizedBody: a /tick or /whatif body past maxBodyBytes is
// refused with 413 and the JSON error body, and the daemon state is
// untouched.
func TestHTTPOversizedBody(t *testing.T) {
	d, err := New(Config{Trace: testSpec()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	// A valid request padded with whitespace past the cap, so only the
	// size can be at fault.
	big := append([]byte(`{"green_scale":{}`), bytes.Repeat([]byte(" "), maxBodyBytes)...)
	big = append(big, '}')
	for _, path := range []string{"/tick", "/whatif"} {
		resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]string
		decodeErr := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413", path, resp.StatusCode)
		}
		if decodeErr != nil || body["error"] == "" {
			t.Fatalf("%s: 413 without a JSON error body (%v): %v", path, decodeErr, body)
		}
	}
	if v := d.PlanView(); v.Tick != 0 {
		t.Fatalf("oversized tick advanced the daemon to tick %d", v.Tick)
	}
}

// TestWhatIfSessions pins session semantics: per-session evaluators answer
// deterministically, a session survives across queries, close works, and the
// spec knobs apply at session creation.
func TestWhatIfSessions(t *testing.T) {
	d, err := New(Config{Trace: testSpec()})
	if err != nil {
		t.Fatal(err)
	}
	first, err := d.WhatIf(WhatIfRequest{Session: "s1"})
	if err != nil {
		t.Fatal(err)
	}
	again, err := d.WhatIf(WhatIfRequest{Session: "s1"})
	if err != nil {
		t.Fatal(err)
	}
	if first.MonthlyUSD != again.MonthlyUSD || first.GreenFraction != again.GreenFraction {
		t.Fatalf("session answers drifted: %+v vs %+v", first, again)
	}
	oneShot, err := d.WhatIf(WhatIfRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if oneShot.MonthlyUSD != first.MonthlyUSD {
		t.Fatalf("one-shot %+v disagrees with session %+v", oneShot, first)
	}

	// A brown network (green fraction 0) must be cheaper than the default.
	zero := 0.0
	brown, err := d.WhatIf(WhatIfRequest{Session: "brown", MinGreenFraction: &zero})
	if err != nil {
		t.Fatal(err)
	}
	if !brown.Feasible || brown.MonthlyUSD >= first.MonthlyUSD {
		t.Fatalf("brown network %+v not cheaper than green %+v", brown, first)
	}

	if _, err := d.WhatIf(WhatIfRequest{Session: "s1", Close: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WhatIf(WhatIfRequest{Session: "s1", Close: true}); err == nil {
		t.Fatal("closing a closed session succeeded")
	}
	if _, err := d.WhatIf(WhatIfRequest{Candidates: []WhatIfCandidate{{Site: "atlantis"}}}); err == nil {
		t.Fatal("unknown candidate site accepted")
	}
}

// TestWhatIfConcurrent hammers many sessions in parallel while the daemon
// ticks — the read-mostly serving design must hold up under -race, and every
// session must answer exactly what it answers alone.
func TestWhatIfConcurrent(t *testing.T) {
	d, err := New(Config{Trace: testSpec()})
	if err != nil {
		t.Fatal(err)
	}
	solo, err := d.WhatIf(WhatIfRequest{})
	if err != nil {
		t.Fatal(err)
	}

	const sessions, queries = 8, 5
	var wg sync.WaitGroup
	errs := make(chan error, sessions*queries+8)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			name := fmt.Sprintf("sess-%d", s)
			for q := 0; q < queries; q++ {
				got, err := d.WhatIf(WhatIfRequest{Session: name})
				if err != nil {
					errs <- err
					return
				}
				if got.MonthlyUSD != solo.MonthlyUSD {
					errs <- fmt.Errorf("session %s query %d: %v, want %v", name, q, got.MonthlyUSD, solo.MonthlyUSD)
					return
				}
			}
		}(s)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if _, err := d.Tick(TickRequest{}); err != nil {
				errs <- err
				return
			}
			d.PlanView()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if v := d.PlanView(); v.Tick != 8 || v.CumLPStats.ColdFallbacks != 0 {
		t.Fatalf("after concurrent load: tick %d, cold fallbacks %d", v.Tick, v.CumLPStats.ColdFallbacks)
	}
}

// TestWhatIfSessionEviction fills the table past its cap and checks the
// oldest session is evicted (recreated transparently on next use).
func TestWhatIfSessionEviction(t *testing.T) {
	d, err := New(Config{Trace: testSpec()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= maxWhatIfSessions; i++ {
		if _, err := d.WhatIf(WhatIfRequest{Session: fmt.Sprintf("e-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	d.sessions.mu.Lock()
	n := len(d.sessions.byName)
	_, oldest := d.sessions.byName["e-0"]
	d.sessions.mu.Unlock()
	if n != maxWhatIfSessions {
		t.Fatalf("session table holds %d, cap is %d", n, maxWhatIfSessions)
	}
	if oldest {
		t.Fatal("oldest session survived past the cap")
	}
}

// FuzzHandler drives arbitrary bodies through the request decoders of
// POST /tick and POST /whatif.  Whatever the bytes, the daemon must answer
// without panicking and without a 5xx: a malformed or nonsensical body is
// the client's error (4xx), never the server's.
func FuzzHandler(f *testing.F) {
	d, err := New(Config{Trace: testSpec()})
	if err != nil {
		f.Fatal(err)
	}
	dc, site := d.names[0], d.catalog.Sites()[0].Name
	f.Add([]byte(`{}`))
	f.Add([]byte(fmt.Sprintf(`{"green_scale":{%q:0.5}}`, dc)))
	f.Add([]byte(fmt.Sprintf(`{"green_scale":{%q:-1e308}}`, dc)))
	f.Add([]byte(`{"green_scale":{"nowhere":1}}`))
	f.Add([]byte(fmt.Sprintf(`{"candidates":[{"site":%q,"capacity_kw":5}]}`, site)))
	f.Add([]byte(fmt.Sprintf(`{"session":"s","candidates":[{"site":%q}],"min_green_fraction":2,"total_capacity_kw":-1}`, site)))
	f.Add([]byte(`{"session":"s","close":true}`))
	f.Add([]byte(`{"unknown":1}`))
	f.Add([]byte(`{"green_scale":`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte{})

	h := d.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/tick", "/whatif"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if rec.Code >= 500 {
				t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body)
			}
		}
	})
}
