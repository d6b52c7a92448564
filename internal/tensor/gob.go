package tensor

import "bytes"

// GobEncode implements gob.GobEncoder using the canonical binary encoding,
// so tensors embedded in RPC messages (graph registration, feeds, fetches)
// ride the same format as checkpoints.
func (t *Tensor) GobEncode() ([]byte, error) {
	return t.encode()
}

// GobDecode implements gob.GobDecoder.
func (t *Tensor) GobDecode(data []byte) error {
	decoded, err := ReadFrom(bytes.NewReader(data))
	if err != nil {
		return err
	}
	*t = *decoded
	return nil
}
