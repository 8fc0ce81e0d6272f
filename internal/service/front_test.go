package service_test

// Contract pins for the job front end shared by the worker daemon
// (service.Server) and the fleet coordinator (federation.Coordinator): both
// must answer the /v1 API with the same statuses and headers, and both must
// replay their journal under the same ID rules.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"battsched/internal/experiments"
	"battsched/internal/federation"
	"battsched/internal/service"
	"battsched/internal/service/journal"
)

// frontDaemon is the surface the contract tests drive on either front.
type frontDaemon interface {
	Handler() http.Handler
	Job(id string) (service.JobStatus, error)
	Health() service.Health
	Shutdown(ctx context.Context) error
	Close()
}

// heldGate is a fault hook whose units block while the gate is held and run
// freely once it is released; hold re-arms it.
type heldGate struct {
	mu sync.Mutex
	ch chan struct{}
}

func (g *heldGate) hold() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ch = make(chan struct{})
}

func (g *heldGate) release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.ch != nil {
		close(g.ch)
		g.ch = nil
	}
}

func (g *heldGate) hook(ctx context.Context, _ string, _ experiments.Shard) error {
	g.mu.Lock()
	ch := g.ch
	g.mu.Unlock()
	if ch == nil {
		return nil
	}
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// fronts lists both executors behind the front end. Each start function
// returns a front whose units run through hook; queueCapacity bounds its
// admission and cacheDir (may be "") holds its cache and journal.
var fronts = []struct {
	name  string
	start func(t *testing.T, hook func(context.Context, string, experiments.Shard) error, queueCapacity int, cacheDir string) frontDaemon
}{
	{"daemon", func(t *testing.T, hook func(context.Context, string, experiments.Shard) error, queueCapacity int, cacheDir string) frontDaemon {
		srv, err := service.New(service.Config{Workers: 1, QueueCapacity: queueCapacity, CacheDir: cacheDir, FaultHook: hook})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		return srv
	}},
	{"coordinator", func(t *testing.T, hook func(context.Context, string, experiments.Shard) error, queueCapacity int, cacheDir string) frontDaemon {
		w, err := service.New(service.Config{Workers: 1, FaultHook: hook})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(w.Handler())
		co, err := federation.New(federation.Config{
			Workers:           []string{ts.URL},
			HeartbeatInterval: 20 * time.Millisecond,
			DeadAfter:         2,
			LeaseDuration:     500 * time.Millisecond,
			PollInterval:      10 * time.Millisecond,
			StragglerMin:      time.Hour,
			MaxAttempts:       5,
			QueueCapacity:     queueCapacity,
			CacheDir:          cacheDir,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			co.Close()
			ts.Close()
			w.Close()
		})
		return co
	}},
}

// httpReply is one buffered HTTP response.
type httpReply struct {
	status int
	header http.Header
	body   []byte
}

func do(t *testing.T, method, url, body string) httpReply {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return httpReply{status: resp.StatusCode, header: resp.Header, body: raw}
}

// jobBody is a small quick table2 submission, distinct per seed.
func jobBody(seed int) string {
	return `{"experiment":"table2","spec":{"quick":true,"battery":"kibam","sets":4,"seed":` + strconv.Itoa(seed) + `}}`
}

// decodeStatus decodes a JobStatus reply.
func decodeStatus(t *testing.T, r httpReply) service.JobStatus {
	t.Helper()
	var st service.JobStatus
	if err := json.Unmarshal(r.body, &st); err != nil {
		t.Fatalf("decoding job status %q: %v", r.body, err)
	}
	return st
}

// waitJob polls the front until the job reaches want.
func waitJob(t *testing.T, d frontDaemon, id, want string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := d.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return
		}
		if st.State == service.StateFailed {
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestHTTPContractBothFronts pins the /v1 status contract on both the worker
// daemon and the coordinator: 400 on bad requests, 404 on unknown jobs, 409
// on unfinished reports, 429 with a whole-second Retry-After on a full
// queue, 200 with the cached body on resubmission, ?format=table rendering,
// and 503 (Retry-After: 1, /healthz 503) while draining.
func TestHTTPContractBothFronts(t *testing.T) {
	for _, fr := range fronts {
		t.Run(fr.name, func(t *testing.T) {
			g := &heldGate{}
			g.hold()
			defer g.release()
			d := fr.start(t, g.hook, 1, "")
			ts := httptest.NewServer(d.Handler())
			defer ts.Close()

			for _, body := range []string{
				`{"experiment":"table2","bogus":1}`,
				`{"experiment":"nope"}`,
				`{"experiment":"table2","shards":-1}`,
				`{"experiment":"curve","shards":2}`,
			} {
				if r := do(t, "POST", ts.URL+"/v1/jobs", body); r.status != http.StatusBadRequest {
					t.Errorf("POST %s = %d, want 400", body, r.status)
				}
			}
			if r := do(t, "GET", ts.URL+"/v1/jobs/job-999999", ""); r.status != http.StatusNotFound {
				t.Errorf("unknown job = %d, want 404", r.status)
			}

			first := do(t, "POST", ts.URL+"/v1/jobs", jobBody(1))
			if first.status != http.StatusAccepted {
				t.Fatalf("first submission = %d %s, want 202", first.status, first.body)
			}
			a := decodeStatus(t, first)
			if r := do(t, "GET", ts.URL+"/v1/jobs/"+a.ID+"/report", ""); r.status != http.StatusConflict {
				t.Errorf("report of unfinished job = %d, want 409", r.status)
			}

			// Fill the queue with novel specs until the bound rejects one.
			ids := []string{a.ID}
			full := false
			for seed := 2; seed < 10 && !full; seed++ {
				r := do(t, "POST", ts.URL+"/v1/jobs", jobBody(seed))
				switch r.status {
				case http.StatusAccepted:
					ids = append(ids, decodeStatus(t, r).ID)
				case http.StatusTooManyRequests:
					full = true
					if secs, err := strconv.Atoi(r.header.Get("Retry-After")); err != nil || secs < 1 {
						t.Errorf("429 Retry-After = %q, want whole seconds >= 1", r.header.Get("Retry-After"))
					}
				default:
					t.Fatalf("fill submission = %d %s", r.status, r.body)
				}
			}
			if !full {
				t.Fatal("queue never answered 429")
			}

			g.release()
			for _, id := range ids {
				waitJob(t, d, id, service.StateDone)
			}
			want := do(t, "GET", ts.URL+"/v1/jobs/"+a.ID+"/report", "")
			if want.status != http.StatusOK {
				t.Fatalf("report = %d, want 200", want.status)
			}
			again := do(t, "POST", ts.URL+"/v1/jobs", jobBody(1))
			if again.status != http.StatusOK || !decodeStatus(t, again).Cached {
				t.Fatalf("resubmission = %d %s, want 200 cached", again.status, again.body)
			}
			cached := do(t, "GET", ts.URL+"/v1/jobs/"+decodeStatus(t, again).ID+"/report", "")
			if cached.status != http.StatusOK || string(cached.body) != string(want.body) {
				t.Fatalf("cached report = %d, body equal %v", cached.status, string(cached.body) == string(want.body))
			}
			table := do(t, "GET", ts.URL+"/v1/jobs/"+a.ID+"/report?format=table", "")
			if table.status != http.StatusOK || !strings.Contains(string(table.body), "Table 2") ||
				!strings.HasPrefix(table.header.Get("Content-Type"), "text/plain") {
				t.Fatalf("table report = %d %q:\n%s", table.status, table.header.Get("Content-Type"), table.body)
			}

			// Drain with one job held in flight.
			g.hold()
			held := do(t, "POST", ts.URL+"/v1/jobs", jobBody(100))
			if held.status != http.StatusAccepted {
				t.Fatalf("held submission = %d %s", held.status, held.body)
			}
			waitJob(t, d, decodeStatus(t, held).ID, service.StateRunning)
			done := make(chan struct{})
			go func() {
				defer close(done)
				_ = d.Shutdown(context.Background())
			}()
			for d.Health().Status != "draining" {
				time.Sleep(time.Millisecond)
			}
			if r := do(t, "POST", ts.URL+"/v1/jobs", jobBody(101)); r.status != http.StatusServiceUnavailable || r.header.Get("Retry-After") != "1" {
				t.Errorf("submit while draining = %d Retry-After %q, want 503 with 1", r.status, r.header.Get("Retry-After"))
			}
			if r := do(t, "GET", ts.URL+"/healthz", ""); r.status != http.StatusServiceUnavailable {
				t.Errorf("/healthz while draining = %d, want 503", r.status)
			}
			g.release()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("drain did not complete after the held unit was released")
			}
		})
	}
}

// TestReplayCanonicalJobIDs pins the strict job-ID parser on both fronts: a
// journal record whose ID is not canonical ("job-7x") replays under a fresh
// canonical ID that does not clash with the journaled job-000007.
func TestReplayCanonicalJobIDs(t *testing.T) {
	for _, fr := range fronts {
		t.Run(fr.name, func(t *testing.T) {
			dir := t.TempDir()
			jr, _, err := journal.Open(filepath.Join(dir, "journal.jsonl"), false)
			if err != nil {
				t.Fatal(err)
			}
			for i, id := range []string{"job-000007", "job-7x"} {
				spec, err := json.Marshal(service.SpecRequest{Quick: true, Battery: "kibam", Sets: 4, Seed: int64(i + 1)})
				if err != nil {
					t.Fatal(err)
				}
				if err := jr.Accept(journal.Accept{ID: id, Experiment: "table2", Spec: spec, Created: time.Now()}); err != nil {
					t.Fatal(err)
				}
			}
			if err := jr.Close(); err != nil {
				t.Fatal(err)
			}

			g := &heldGate{}
			g.hold()
			defer g.release()
			d := fr.start(t, g.hook, 0, dir)

			seven, err := d.Job("job-000007")
			if err != nil {
				t.Fatalf("journaled job-000007 not replayed: %v", err)
			}
			if _, err := d.Job("job-7x"); !errors.Is(err, service.ErrUnknownJob) {
				t.Fatalf("non-canonical ID job-7x replayed as itself (err %v)", err)
			}
			fresh, err := d.Job("job-000008")
			if err != nil {
				t.Fatalf("job-7x not reissued as job-000008: %v", err)
			}
			if fresh.Hash == seven.Hash {
				t.Fatal("reissued job carries job-000007's spec")
			}
			if h := d.Health(); h.Jobs != 2 {
				t.Fatalf("Health.Jobs = %d, want 2", h.Jobs)
			}

			// Once both jobs finish, a restart replays neither: the reissued
			// record moved to its new ID and compacted away with it.
			g.release()
			waitJob(t, d, "job-000007", service.StateDone)
			waitJob(t, d, "job-000008", service.StateDone)
			d.Close()
			if h := fr.start(t, g.hook, 0, dir).Health(); h.Jobs != 0 {
				t.Fatalf("restart replayed %d finished jobs, want 0", h.Jobs)
			}
		})
	}
}
