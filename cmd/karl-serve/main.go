// Command karl-serve is `karl serve` under its own name: the same flags,
// the same exit codes, and -spawn children started as karl-serve.
//
//	karl-serve -model engine.karl -addr :8080
package main

import (
	"os"

	"karl/internal/cli"
)

func main() { os.Exit(cli.Serve(os.Args[1:])) }
