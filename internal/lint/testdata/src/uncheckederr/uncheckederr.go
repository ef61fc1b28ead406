// Fixture for the unchecked-error rule.
package uncheckederr

import (
	"bytes"
	"fmt"
	"os"
	"strings"
)

// Drop discards Close's error — forbidden.
func Drop(f *os.File) {
	f.Close() // want "error return of Close is discarded"
}

// DropEncode discards an error from an interface method — forbidden.
func DropEncode(enc interface{ Encode(v interface{}) error }) {
	enc.Encode(1) // want "error return of Encode is discarded"
}

// DropValue discards the error of a call through a func value — forbidden.
func DropValue(flush func() error) {
	flush() // want "error return of call is discarded"
}

// Handled propagates the error — allowed.
func Handled(f *os.File) error {
	return f.Close()
}

// Explicit discards with an assignment, visibly — allowed.
func Explicit(f *os.File) {
	_ = f.Close()
}

// Terminal output is best-effort by convention — allowed.
func Terminal(n int) {
	fmt.Println("progress", n)
	fmt.Fprintf(os.Stderr, "note %d\n", n)
}

// In-memory buffers document that writes never fail — allowed.
func Buffers(b *bytes.Buffer, sb *strings.Builder) {
	b.WriteString("x")
	sb.WriteString("y")
	fmt.Fprintf(b, "z %d", 1)
}

// NoError calls a function with no error result — not this rule's business.
func NoError(xs []int) {
	clear(xs)
}
