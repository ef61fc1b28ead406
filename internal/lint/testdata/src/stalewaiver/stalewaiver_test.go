package stalewaiver

import (
	"fmt"
	"testing"
)

func TestLive(t *testing.T) {
	//lfolint:ignore fmt-print waivers in test files are always dead: lfolint does not lint tests
	fmt.Println(Stale())
}
