// Voice assistant (paper §6.5.1): a trigger-word scanner on a strongly
// isolated Rocket tile, a FLAC compressor, the UDP network stack, and the
// pager — run with all supporting components sharing one BOOM core and with
// each on its own tile, reporting the sharing overhead.
package main

import (
	"fmt"
	"log"

	"m3v/internal/bench"
)

func main() {
	fmt.Println("Voice assistant (paper §6.5.1)")
	fmt.Println("scanner listens on the Rocket tile; compressor, net, and pager")
	fmt.Println("either share one BOOM core or run isolated.")
	fmt.Println()
	r, err := bench.VoiceAssistant(bench.Params{}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(r)
}
