package faultnet

import (
	"net"
	"sync"
)

// PipeListener is an in-memory net.Listener over net.Pipe, the transport a
// chaos test puts under Wrap. A pipe delivers every Write as exactly one
// Read, so the operation indices a Schedule keys on never depend on kernel
// segmentation or timing. Dial returns once Accept has taken the other end.
type PipeListener struct {
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
}

// NewPipeListener returns an open pipe listener.
func NewPipeListener() *PipeListener {
	return &PipeListener{ch: make(chan net.Conn), done: make(chan struct{})}
}

// Dial hands Accept one end of a new pipe and returns the other.
func (l *PipeListener) Dial() (net.Conn, error) {
	client, srv := net.Pipe()
	select {
	case l.ch <- srv:
		return client, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Accept implements net.Listener.
func (l *PipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close implements net.Listener: waiting and later Accept and Dial calls
// fail with net.ErrClosed; connections already handed out stay open.
func (l *PipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

// Addr implements net.Listener.
func (l *PipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }
