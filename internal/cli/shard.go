package cli

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"karl"
	"karl/internal/shard"
)

// defineShard is karl shard. -split writes shard-<i>.karl engine files
// (loadable by serve -model) and logs each shard's cardinality and weight
// masses. Points are placed by the cluster manifest's routing
// (Engine.Shard): under hash, shard-<i> holds exactly the points a
// coordinator founded over the files in order routes to its member i+1.
// Every shard file keeps its source's configuration (kernel, index, LSM
// policy, TTL, decay) and ids, and carries its provenance (index i of n,
// strategy, source cardinality). -inspect describes any saved engine: shape, kernel, masses,
// and the shard provenance it records.
func defineShard(fs *flag.FlagSet, e *env) func() error {
	var (
		split     = fs.String("split", "", "saved engine file to split into shards")
		n         = fs.Int("n", 4, "number of shards for -split")
		partition = fs.String("partition", "hash", "partition strategy for -split: hash or kd")
		out       = fs.String("out", ".", "output directory for -split")
		inspect   = fs.String("inspect", "", "shard (or any saved) engine file to describe")
	)
	return func() error {
		switch {
		case (*split != "") == (*inspect != ""):
			return usagef("need exactly one of -split or -inspect")
		case *split != "":
			return runSplit(*split, *out, *partition, *n)
		default:
			return e.runInspect(*inspect)
		}
	}
}

func runSplit(src, outDir, partition string, n int) error {
	kind, err := shard.ParseKind(partition)
	if err != nil {
		return usagef("-partition: %v", err)
	}
	eng, err := load(src, karl.ReadEngine)
	if err != nil {
		return err
	}
	shards, err := eng.Shard(n, kind)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	for i, se := range shards {
		path := filepath.Join(outDir, fmt.Sprintf("shard-%d.karl", i))
		if _, err := save(path, se); err != nil {
			return err
		}
		wpos, wneg := se.WeightMass()
		log.Printf("wrote %s: %d points, W⁺=%.6g W⁻=%.6g", path, se.Len(), wpos, wneg)
	}
	log.Printf("%s partition, %d points over %d shards", kind, eng.Len(), n)
	return nil
}

func (e *env) runInspect(path string) error {
	eng, err := load(path, karl.ReadEngine)
	if err != nil {
		return err
	}
	w := e.stdout
	k := eng.Kernel()
	wpos, wneg := eng.WeightMass()
	fmt.Fprintf(w, "%s: %d points, %d dims, %v kernel (γ=%v), W⁺=%.6g W⁻=%.6g\n",
		path, eng.Len(), eng.Dims(), k.Kind, k.Gamma, wpos, wneg)
	if prov, ok := eng.ShardInfo(); ok {
		fmt.Fprintf(w, "  shard %d of %d (%s partition) from a %d-point dataset\n",
			prov.Index, prov.Of, prov.Partition, prov.SourceLen)
	} else {
		fmt.Fprintln(w, "  not a shard: no partition provenance recorded")
	}
	return nil
}
