// Cloud key-value service (paper §6.5.2): an LSM-tree store (the leveldb
// substitute) on top of the extent-based file system, answering YCSB
// workloads and streaming results over UDP — compared between M³v with
// isolated tiles, M³v with one shared tile, and the Linux reference.
package main

import (
	"fmt"
	"log"

	"m3v/internal/bench"
)

func main() {
	fmt.Println("Cloud service (paper §6.5.2, Figure 10)")
	fmt.Println("LSM store + m3fs + net + pager; YCSB read/insert/update/mixed/scan.")
	fmt.Println()
	r, err := bench.Fig10(bench.Params{}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(r)
}
