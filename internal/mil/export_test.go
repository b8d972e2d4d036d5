package mil

// RoundTrip sends one raw command header and payload and reads the reply
// — the protocol tests' way to ship frames the typed methods refuse to
// build.
func (c *Client) RoundTrip(header string, body []byte) (string, error) {
	return c.roundTrip(header, body)
}
