package nsds

import (
	"encoding/json"
	"fmt"
	"net"
	"time"
)

// Client consumes a remote NSDS stream: whole batch frames decoded into
// sample slices delivered on Batches().
type Client struct {
	conn    net.Conn
	batches chan []Sample
}

// DialBatches connects, subscribes to channels (empty = all), and starts
// decoding batch frames into Batches(). buffer is in batches. With catchUp
// the server sends its retained samples for the channels first, then the
// live stream — a viewer joining mid-experiment sees history immediately.
// dial overrides the dialer (fault injection); nil means net.Dial. This is
// the relay tier's upstream leg.
func DialBatches(addr string, buffer int, catchUp bool, channels []string, dial func(network, addr string) (net.Conn, error)) (*Client, error) {
	if dial == nil {
		dial = net.Dial
	}
	conn, err := dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("nsds: dial %s: %w", addr, err)
	}
	msg := subscribeMsg{Channels: channels, Buffer: buffer, CatchUp: catchUp}
	if err := json.NewEncoder(conn).Encode(msg); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("nsds: subscribe: %w", err)
	}
	if buffer < 1 {
		buffer = 64
	}
	c := &Client{conn: conn, batches: make(chan []Sample, buffer)}
	go func() {
		defer close(c.batches)
		dec := newFrameDecoder(conn)
		for {
			samples, err := dec.Next()
			if err != nil {
				return
			}
			c.batches <- samples
		}
	}()
	return c, nil
}

// Batches returns the received batch stream; closed on disconnect.
func (c *Client) Batches() <-chan []Sample { return c.batches }

// Close disconnects.
func (c *Client) Close() error { return c.conn.Close() }

// CollectFor drains samples for a duration (test/diagnostic helper),
// flattening batches into one sample slice.
func (c *Client) CollectFor(d time.Duration) []Sample {
	var out []Sample
	deadline := time.After(d)
	for {
		select {
		case b, ok := <-c.batches:
			if !ok {
				return out
			}
			out = append(out, b...)
		case <-deadline:
			return out
		}
	}
}
