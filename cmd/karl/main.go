// Command karl is KARL's one command line: fast kernel aggregation queries
// served over HTTP, the tools that build, split and inspect the engine
// files they serve from, the SVM and KDE applications, and the paper's
// experiments. `karl <verb> -h` lists a verb's flags. A usage error exits
// 2, a failure at run time 1.
//
// Serve an engine over HTTP/JSON (endpoints and modes: karl serve -h and
// DESIGN.md):
//
//	karl serve -model engine.karl -addr :8080          # saved engine, read-only
//	karl serve -points data.txt -gamma 2 -addr :8080   # build from vectors
//	karl serve -mutable -gamma 2 -addr :8080           # start empty, accept writes
//	karl serve -mutable -model engine.karl -addr :8080 # saved engine, accept writes
//	karl serve -mutable -replica-of http://s0:8080 -addr :8081
//	karl serve -coordinator -shards http://s0:8080,http://s1:8080 -addr :9090
//	karl serve -coordinator -mutable -partition hash -shards 'http://s0:8080|http://s0b:8081' -manifest cluster.manifest
//
// Split a saved engine into shard files, or describe one:
//
//	karl shard -split engine.karl -n 4 -out shards/
//	karl shard -split engine.karl -n 4 -partition kd -out shards/
//	karl shard -inspect shards/shard-2.karl
//
// Train an SVM and classify with it (2-class rows lead with the ±1 label):
//
//	karl train -mode 2class -in train.txt -c 1 -gamma 0.5
//	karl train -mode 1class -in points.txt -nu 0.1
//	karl train -mode 2class -demo -out model.karl
//	karl predict -model model.karl -values < queries.txt
//
// Render a density surface over two dimensions (Figure 1):
//
//	karl kde -in points.txt -dimx 0 -dimy 1 -res 40 -format csv
//	karl kde -synthetic miniboone -res 32
//
// Rank the index candidates of a workload, and run the paper's experiments:
//
//	karl tune -dataset home
//	karl tune -dataset nsl-kdd -queries 200
//	karl bench -list
//	karl bench -run tab7
//	karl bench -run all -scale 0.05 -queries 500 -maxn 50000
package main

import (
	"os"

	"karl/internal/cli"
)

func main() { os.Exit(cli.Main(os.Args[1:])) }
