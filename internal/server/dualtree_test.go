package server

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"sync"
	"testing"

	"karl"
)

func randBatch(rng *rand.Rand, n, dim int) [][]float64 {
	qs := make([][]float64, n)
	for i := range qs {
		q := make([]float64, dim)
		for j := range q {
			q[j] = rng.Float64()
		}
		qs[i] = q
	}
	return qs
}

// TestBatchDualTreeStats checks that /v1/stats reports the dual_tree block:
// a batch above the cutover's 64 queries counts as a hit with node-pair
// work, a batch below it as a miss.
func TestBatchDualTreeStats(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	pts := randBatch(rng, 600, 3)
	for _, tc := range []struct {
		queries int
		hit     bool
	}{
		{128, true},
		{32, false},
	} {
		eng, err := karl.Build(pts, karl.Gaussian(3))
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(eng)
		if err != nil {
			t.Fatal(err)
		}
		ts := NewTestServer(s)
		resp, body := post(t, ts, "/v1/batch", BatchRequest{
			Kind: "approximate", Queries: randBatch(rng, tc.queries, 3), Eps: 0.1, Workers: 1,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
		}
		st := getStats(t, ts)
		ts.Close()
		if st.DualTree == nil {
			t.Fatal("stats response missing dual_tree block")
		}
		if tc.hit {
			if st.DualTree.Hits != 1 || st.DualTree.Misses != 0 {
				t.Fatalf("large batch: hits=%d misses=%d", st.DualTree.Hits, st.DualTree.Misses)
			}
			if st.DualTree.Queries != int64(tc.queries) || st.DualTree.NodePairs == 0 {
				t.Fatalf("large batch: queries=%d node_pairs=%d", st.DualTree.Queries, st.DualTree.NodePairs)
			}
		} else {
			if st.DualTree.Hits != 0 || st.DualTree.Misses != 1 {
				t.Fatalf("small batch: hits=%d misses=%d", st.DualTree.Hits, st.DualTree.Misses)
			}
		}
	}
}

// TestConcurrentBatchStress races /v1/batch requests against /v1/insert
// traffic on a mutable server: every batch must succeed against whatever
// snapshot it lands on, with seals and manifest swaps happening underneath.
// The engine starts above the cutover's 256 points, so every 80-query
// threshold and approximate batch runs the dual-tree executor.
func TestConcurrentBatchStress(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	d, ts := testMutableServer(t, karl.WithSealSize(64))
	if _, err := d.InsertBulk(randBatch(rng, 300, 2), nil); err != nil {
		t.Fatal(err)
	}

	const (
		inserters = 2
		queriers  = 4
		rounds    = 15
	)
	var wg sync.WaitGroup
	errs := make(chan string, inserters+queriers)
	for w := 0; w < inserters; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for r := 0; r < rounds; r++ {
				resp, body := post(t, ts, "/v1/insert", InsertRequest{Points: randBatch(rng, 40, 2)})
				if resp.StatusCode != http.StatusOK {
					errs <- "insert: " + string(body)
					return
				}
			}
		}(int64(100 + w))
	}
	for w := 0; w < queriers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for r := 0; r < rounds; r++ {
				kind := [3]string{"approximate", "threshold", "aggregate"}[r%3]
				req := BatchRequest{Kind: kind, Queries: randBatch(rng, 80, 2), Workers: 2}
				switch kind {
				case "approximate":
					req.Eps = 0.1
				case "threshold":
					req.Tau = 1
				}
				resp, body := post(t, ts, "/v1/batch", req)
				if resp.StatusCode != http.StatusOK {
					errs <- "batch " + kind + ": " + string(body)
					return
				}
				var br BatchResponse
				if err := json.Unmarshal(body, &br); err != nil {
					errs <- "batch decode: " + err.Error()
					return
				}
				if kind == "threshold" {
					if len(br.Over) != 80 {
						errs <- "batch threshold: wrong result count"
						return
					}
				} else if len(br.Values) != 80 {
					errs <- "batch " + kind + ": wrong result count"
					return
				}
			}
		}(int64(200 + w))
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	st := d.DualTreeStats()
	if st.DualBatches == 0 {
		t.Fatal("stress run recorded no dual-tree batches")
	}
}
