package nsds

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"
)

// DefaultWriteTimeout is the per-connection write deadline applied when
// Server.WriteTimeout is zero. A stalled viewer socket (reader gone, TCP
// window closed) trips the deadline and is disconnected instead of wedging
// its writer goroutine on flush forever — the hub itself never blocks on a
// slow viewer either way, but without a deadline the goroutine and its
// subscription leak for the life of the process.
const DefaultWriteTimeout = 30 * time.Second

// subscribeMsg is the first line a TCP client sends.
type subscribeMsg struct {
	Channels []string `json:"channels"`
	Buffer   int      `json:"buffer"`
	CatchUp  bool     `json:"catch_up,omitempty"`
}

// Server exposes a hub over TCP: the client sends one JSON subscribe line,
// then receives the stream as binary batch frames (wire.go). Every
// connection writes the same Frame() bytes its batch produced once, so
// fanning one batch out to N viewers costs one encode plus N buffer copies.
type Server struct {
	hub *Hub

	// WriteTimeout is the per-connection write deadline: a connection
	// whose flush cannot complete within it is disconnected. Zero means
	// DefaultWriteTimeout; negative disables deadlines. Set before Start.
	WriteTimeout time.Duration

	mu      sync.Mutex
	ln      net.Listener
	conns   map[net.Conn]struct{}
	stopped bool
	done    sync.WaitGroup // outstanding serve goroutines
}

// NewServer wraps a hub.
func NewServer(hub *Hub) *Server { return &Server{hub: hub, conns: make(map[net.Conn]struct{})} }

func (s *Server) writeTimeout() time.Duration {
	switch {
	case s.WriteTimeout < 0:
		return 0
	case s.WriteTimeout == 0:
		return DefaultWriteTimeout
	default:
		return s.WriteTimeout
	}
}

// ConnCount returns the number of live subscriber connections.
func (s *Server) ConnCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Start listens on addr; returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("nsds: listen: %w", err)
	}
	s.mu.Lock()
	s.ln = ln
	s.stopped = false
	s.mu.Unlock()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			if s.stopped {
				s.mu.Unlock()
				_ = conn.Close()
				return
			}
			s.conns[conn] = struct{}{}
			s.done.Add(1)
			s.mu.Unlock()
			go s.serve(conn)
		}
	}()
	return ln.Addr().String(), nil
}

// Close stops the listener and severs every subscriber connection
// immediately.
func (s *Server) Close() error {
	s.mu.Lock()
	s.stopped = true
	err := error(nil)
	if s.ln != nil {
		err = s.ln.Close()
	}
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	return err
}

// Stop is the graceful form of Close for the runtime supervisor: it stops
// the listener, severs subscribers, and waits (bounded by ctx) for the
// per-connection goroutines to finish flushing.
func (s *Server) Stop(ctx context.Context) error {
	err := s.Close()
	idle := make(chan struct{})
	go func() { s.done.Wait(); close(idle) }()
	select {
	case <-idle:
		return err
	case <-ctx.Done():
		return fmt.Errorf("nsds: subscriber connections still draining: %w", ctx.Err())
	}
}

// Healthy reports nil while the listener is accepting subscribers.
func (s *Server) Healthy() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return fmt.Errorf("nsds: server not started")
	}
	if s.stopped {
		return fmt.Errorf("nsds: server stopped")
	}
	return nil
}

func (s *Server) serve(conn net.Conn) {
	defer func() {
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.done.Done()
	}()
	sc := bufio.NewScanner(conn)
	if !sc.Scan() {
		return
	}
	var msg subscribeMsg
	if err := json.Unmarshal(sc.Bytes(), &msg); err != nil {
		return
	}
	sub, err := s.hub.SubscribeBatches(msg.Buffer, msg.CatchUp, msg.Channels...)
	if err != nil {
		return
	}
	defer sub.Cancel()
	// Buffer writes and flush only when the subscription runs dry: a burst
	// of batches coalesces into one syscall, while an idle stream still
	// delivers every batch promptly. The write deadline is refreshed per
	// burst; a viewer that cannot take a burst within it is disconnected.
	bw := bufio.NewWriterSize(conn, 64<<10)
	wt := s.writeTimeout()
	for batch := range sub.Batches() {
		if wt > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(wt))
		}
		if _, err := bw.Write(batch.Frame()); err != nil {
			return
		}
	drain:
		for {
			select {
			case b, ok := <-sub.Batches():
				if !ok {
					_ = bw.Flush()
					return
				}
				if _, err := bw.Write(b.Frame()); err != nil {
					return
				}
			default:
				break drain
			}
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
	_ = bw.Flush()
}
