package main

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"battsched/internal/service/client"
)

// TestServedBatch plays one traced batch against the served deployment and
// checks that every job succeeds with the artifact experiments.Run produces,
// and that the batch deduplicates as the loadgen layout intends: each block
// computes once, its other jobs coalesce onto the computing one or hit the
// cache, and some do coalesce.
func TestServedBatch(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, err := startStack(ctx, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*client.Client, parallel)
	retries := make([]*atomic.Int64, parallel)
	for i := range clients {
		clients[i] = client.New(st.URL)
		retries[i] = new(atomic.Int64)
	}
	tr := NewTracer()
	recs, br := playBatch(ctx, clients, retries, tr, 5, 1)
	st.Close()
	if br.wall <= 0 || len(recs) != blocksPerBatch*blockLen {
		t.Fatalf("batch wall %v with %d records", br.wall, len(recs))
	}
	coalesced := 0
	for k := 0; k < len(recs); k += blockLen {
		computed := 0
		for _, r := range recs[k : k+blockLen] {
			switch {
			case r.status.Coalesced:
				coalesced++
			case !r.status.Cached:
				computed++
			}
		}
		if computed != 1 {
			t.Errorf("block at job %d computed %d times, want once", k, computed)
		}
	}
	if coalesced == 0 {
		t.Errorf("no job coalesced onto an in-flight one")
	}
	out := &outcome{}
	verifyServed(ctx, recs, out)
	if out.attempted != len(recs) || out.failed != 0 {
		t.Errorf("%d of %d jobs failed verification: %v", out.failed, out.attempted, out.problems)
	}
	if busy := LayerBusy(tr.Spans()); busy["service"] <= 0 || busy["job"] < busy["service"] {
		t.Errorf("implausible span busy times %v", busy)
	}
}
