package karl

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// TestConcurrentQueriesShareOneEngine runs eight goroutines over one built
// engine and one mutable engine — no clone anywhere — while a writer
// inserts and deletes on both. Every goroutine cycles through single and
// batch calls of all three query kinds on each engine (the batches are
// large enough for the dual-tree executor), KDE.Density and SVM.Decision,
// and checks each answer against the exact scan. The writer's points sit
// so far from every query that their Gaussian contribution is exactly 0, so
// the scan over the starting points stays the oracle however the manifest
// churns. Run under -race.
func TestConcurrentQueriesShareOneEngine(t *testing.T) {
	const gamma, eps, dims = 4.0, 0.1, 3
	rng := rand.New(rand.NewSource(44))
	pts := cloud(rng, 600, dims)
	queries := cloud(rng, dualTreeMinBatch, dims)
	exact := make([]float64, len(queries))
	for i, q := range queries {
		exact[i] = bruteGaussian(gamma, pts, q)
	}
	svWeights := make([]float64, len(pts))
	svExact := make([]float64, len(queries))
	for i := range svWeights {
		svWeights[i] = float64(i%3) - 1 // Type III: mixed signs
	}
	for i, q := range queries {
		for j, p := range pts {
			svExact[i] += svWeights[j] * bruteGaussian(gamma, [][]float64{p}, q)
		}
	}
	const rho = 0.25

	built, err := Build(pts, Gaussian(gamma))
	if err != nil {
		t.Fatal(err)
	}
	mut, err := NewDynamic(Gaussian(gamma), WithSealSize(64))
	if err != nil {
		t.Fatal(err)
	}
	defer mut.Close()
	if _, err := mut.InsertBulk(pts, nil); err != nil {
		t.Fatal(err)
	}
	kde, err := NewKDEWithGamma(pts, gamma)
	if err != nil {
		t.Fatal(err)
	}
	svm, err := NewSVM(pts, svWeights, rho, Gaussian(gamma))
	if err != nil {
		t.Fatal(err)
	}

	near := func(got, want, tol float64) bool { return math.Abs(got-want) <= tol }
	aggTol := func(i int) float64 { return 1e-9 * (1 + exact[i]) }
	apxTol := func(i int) float64 { return eps*exact[i]*(1+1e-9) + 1e-12 }
	// tauOf keeps every threshold far from its query's total: the verdict is
	// exact whatever order the refinement took.
	tauOf := func(i int) float64 { return exact[i] * (0.5 + float64(i%2)) }

	type check func(r int) error
	var checks []check
	for _, e := range []struct {
		name string
		eng  *Engine
	}{{"built", built}, {"mutable", mut}} {
		eng := e.eng
		checks = append(checks,
			func(r int) error {
				i := r % len(queries)
				if v, err := eng.Aggregate(queries[i]); err != nil || !near(v, exact[i], aggTol(i)) {
					return fmt.Errorf("%s Aggregate(%d) = %v, %v; scan %v", e.name, i, v, err, exact[i])
				}
				return nil
			},
			func(r int) error {
				i := r % len(queries)
				if over, err := eng.Threshold(queries[i], tauOf(i)); err != nil || over != (exact[i] > tauOf(i)) {
					return fmt.Errorf("%s Threshold(%d) = %v, %v; scan %v against %v", e.name, i, over, err, exact[i], tauOf(i))
				}
				return nil
			},
			func(r int) error {
				i := r % len(queries)
				if v, err := eng.Approximate(queries[i], eps); err != nil || !near(v, exact[i], apxTol(i)) {
					return fmt.Errorf("%s Approximate(%d) = %v, %v; scan %v", e.name, i, v, err, exact[i])
				}
				return nil
			},
			func(int) error {
				got, err := eng.BatchAggregate(queries, 4)
				for i, v := range got {
					if !near(v, exact[i], aggTol(i)) {
						err = fmt.Errorf("query %d: %v, scan %v", i, v, exact[i])
						break
					}
				}
				if err != nil {
					return fmt.Errorf("%s BatchAggregate: %w", e.name, err)
				}
				return nil
			},
			func(r int) error {
				tau := tauOf(r % len(queries))
				got, err := eng.BatchThreshold(queries, tau, 4)
				for i, over := range got {
					// Only queries whose total is clear of tau have one
					// verdict whatever the refinement order.
					if math.Abs(exact[i]-tau) > 1e-6*(1+tau) && over != (exact[i] > tau) {
						err = fmt.Errorf("query %d: %v, scan %v against %v", i, over, exact[i], tau)
						break
					}
				}
				if err != nil {
					return fmt.Errorf("%s BatchThreshold: %w", e.name, err)
				}
				return nil
			},
			func(int) error {
				got, err := eng.BatchApproximate(queries, eps, 4)
				for i, v := range got {
					if !near(v, exact[i], apxTol(i)) {
						err = fmt.Errorf("query %d: %v, scan %v", i, v, exact[i])
						break
					}
				}
				if err != nil {
					return fmt.Errorf("%s BatchApproximate: %w", e.name, err)
				}
				return nil
			})
	}
	checks = append(checks,
		func(r int) error {
			i := r % len(queries)
			want := exact[i] / float64(len(pts))
			if v, err := kde.Density(queries[i], eps); err != nil || !near(v, want, apxTol(i)/float64(len(pts))) {
				return fmt.Errorf("KDE.Density(%d) = %v, %v; scan %v", i, v, err, want)
			}
			return nil
		},
		func(r int) error {
			i := r % len(queries)
			want := svExact[i] - rho
			if v, err := svm.Decision(queries[i]); err != nil || !near(v, want, 1e-9*(1+exact[i])) {
				return fmt.Errorf("SVM.Decision(%d) = %v, %v; scan %v", i, v, err, want)
			}
			return nil
		})

	// The writer has sealed, tombstoned and deleted on both engines before
	// the readers start, and keeps going until they are done.
	stop, churned := make(chan struct{}), make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		wrng := rand.New(rand.NewSource(45))
		var ids [2][]uint64
		for step := 0; ; step++ {
			if step == 300 {
				close(churned)
			}
			select {
			case <-stop:
				return
			default:
			}
			for k, eng := range []*Engine{built, mut} {
				far := []float64{1e3 + wrng.Float64(), 1e3, 1e3}
				id, err := eng.InsertID(far, 1)
				if err != nil {
					t.Error(err)
					return
				}
				if ids[k] = append(ids[k], id); len(ids[k]) > 200 {
					if err := eng.Delete(ids[k][0]); err != nil {
						t.Error(err)
						return
					}
					ids[k] = ids[k][1:]
				}
			}
		}
	}()

	const goroutines, rounds = 8, 2
	<-churned
	errs := make(chan error, goroutines)
	var readers sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for r := 0; r < rounds*len(checks); r++ {
				if err := checks[(g+r)%len(checks)](g*rounds*len(checks) + r); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := mut.Status()
	t.Logf("mutable engine after the run: %d seals, %d compactions, %d deletes, %d tombstones, %d segments",
		st.Seals, st.Compactions, st.Deletes, st.Tombstones, len(st.Segments))
	if st.Seals <= len(pts)/64 || st.Deletes == 0 {
		t.Errorf("the writer sealed no far point or deleted none: %+v", st)
	}
	if st := built.DualTreeStats(); st.DualBatches == 0 {
		t.Error("no batch took the dual-tree executor")
	}
}

// TestSequentialQueriesReuseOneView: a query puts its scratch back when it
// returns, so queries one after another — single and batch, on the engine
// and on a second handle from Clone — run on one view, and the free list is
// bounded at 2·GOMAXPROCS.
func TestSequentialQueriesReuseOneView(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	eng, err := Build(cloud(rng, 400, 2), Gaussian(3))
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{0.4, 0.4}
	other := eng.Clone()
	for i := 0; i < 20; i++ {
		if _, err := eng.Approximate(q, 0.1); err != nil {
			t.Fatal(err)
		}
		if _, err := other.Threshold(q, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.BatchApproximate(cloud(rng, dualTreeMinBatch, 2), 0.1, 1); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(eng.sh.views); n != 1 {
		t.Fatalf("%d views parked after sequential queries, want 1", n)
	}
	if c, want := cap(eng.sh.views), 2*runtime.GOMAXPROCS(0); c != want {
		t.Fatalf("free list bound %d, want 2·GOMAXPROCS = %d", c, want)
	}
}
