package codec

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestErrorKindBadSpec(t *testing.T) {
	for _, spec := range []string{"", "nosuchfamily", "zfp:rat=8", "dctc:cf=4+nosuchstage"} {
		_, err := New(spec)
		if err == nil {
			t.Fatalf("New(%q) succeeded, want error", spec)
		}
		if !errors.Is(err, ErrBadSpec) {
			t.Errorf("New(%q) error %v does not match ErrBadSpec", spec, err)
		}
		if kind := ErrorKind(err); kind != "bad_spec" {
			t.Errorf("New(%q) kind %q, want bad_spec", spec, kind)
		}
	}
	if _, err := ParseSpec(""); !errors.Is(err, ErrBadSpec) {
		t.Errorf("ParseSpec error %v does not match ErrBadSpec", err)
	}
}

func TestErrorKindContainerCRC(t *testing.T) {
	c, err := New("zfp:rate=8")
	if err != nil {
		t.Fatal(err)
	}
	data, err := c.Compress(mkStreamTensor(3, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte: the container CRC must catch it and the error
	// must carry the CRC kind on top of the existing message.
	data[len(data)-1] ^= 0xFF
	_, _, err = DecodeBytes(data)
	if err == nil {
		t.Fatal("corrupted container decoded successfully")
	}
	if !errors.Is(err, ErrCRC) {
		t.Errorf("error %v does not match ErrCRC", err)
	}
	if kind := ErrorKind(err); kind != "crc" {
		t.Errorf("kind %q, want crc", kind)
	}
	if !strings.Contains(err.Error(), "CRC mismatch") {
		t.Errorf("message reworded: %v", err)
	}
}

func TestErrorKindContainerTruncated(t *testing.T) {
	c, err := New("zfp:rate=8")
	if err != nil {
		t.Fatal(err)
	}
	data, err := c.Compress(mkStreamTensor(3, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{4, 10, len(data) - 3} {
		_, _, err = DecodeBytes(data[:cut])
		if err == nil {
			t.Fatalf("truncated container (%d bytes) decoded successfully", cut)
		}
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("cut=%d: error %v does not match ErrTruncated", cut, err)
		}
	}
}

func TestErrorKindCanceled(t *testing.T) {
	c, err := New("zfp:rate=8")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = NewStreamWriter(io.Discard).WriteTensor(ctx, c, mkStreamTensor(3, 8, 8))
	if err == nil {
		t.Fatal("WriteTensor with canceled context succeeded")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("error %v does not match ErrCanceled", err)
	}
	// The original chain must survive the kind marker: callers matching
	// context.Canceled directly keep working.
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v no longer matches context.Canceled", err)
	}
}

func TestErrorKindStream(t *testing.T) {
	ctx := context.Background()
	c, err := New("zfp:rate=8")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	if err := sw.WriteTensor(ctx, c, mkStreamTensor(3, 8, 8)); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("chunk-crc", func(t *testing.T) {
		data := append([]byte(nil), good...)
		data[len(data)-2] ^= 0xFF // last payload byte, before the end marker
		sr, err := NewStreamReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sr.Next(); err != nil {
			t.Fatal(err)
		}
		_, err = sr.Decode(ctx)
		if err == nil {
			t.Fatal("corrupted record decoded successfully")
		}
		if !errors.Is(err, ErrCRC) {
			t.Errorf("error %v does not match ErrCRC", err)
		}
	})

	t.Run("header-crc", func(t *testing.T) {
		data := append([]byte(nil), good...)
		data[11] ^= 0xFF // inside the record header's spec bytes
		sr, err := NewStreamReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sr.Next(); !errors.Is(err, ErrCRC) {
			t.Errorf("error %v does not match ErrCRC", err)
		}
	})

	t.Run("truncated", func(t *testing.T) {
		sr, err := NewStreamReader(bytes.NewReader(good[:len(good)/2]))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sr.Next(); err != nil {
			if !errors.Is(err, ErrTruncated) {
				t.Errorf("Next error %v does not match ErrTruncated", err)
			}
			return
		}
		_, err = sr.Decode(ctx)
		if err == nil {
			t.Fatal("truncated record decoded successfully")
		}
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("Decode error %v does not match ErrTruncated", err)
		}
	})

	t.Run("missing-end-marker", func(t *testing.T) {
		sr, err := NewStreamReader(bytes.NewReader(good[:len(good)-1]))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sr.Next(); err != nil {
			t.Fatal(err)
		}
		if _, err := sr.Decode(ctx); err != nil {
			t.Fatal(err)
		}
		_, err = sr.Next()
		if err == nil || err == io.EOF {
			t.Fatalf("stream without end marker ended cleanly (err=%v)", err)
		}
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("error %v does not match ErrTruncated", err)
		}
	})
}

func TestErrorKindClassifiesPlainErrors(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{io.ErrUnexpectedEOF, "truncated"},
		{context.Canceled, "canceled"},
		{context.DeadlineExceeded, "canceled"},
		{errors.New("mystery"), "other"},
		{ErrCRC, "crc"},
		{ErrBadSpec, "bad_spec"},
	}
	for _, c := range cases {
		if got := ErrorKind(c.err); got != c.want {
			t.Errorf("ErrorKind(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

// TestKindErrorMessageUnchanged pins the compatibility contract: the
// kind marker must not alter the error text callers and tests match on.
func TestKindErrorMessageUnchanged(t *testing.T) {
	inner := errors.New("codec: stream offset 42 (record 7): something broke")
	marked := markErr(ErrCRC, inner)
	if marked.Error() != inner.Error() {
		t.Errorf("markErr changed the message:\n got %q\nwant %q", marked.Error(), inner.Error())
	}
	if !errors.Is(marked, inner) {
		t.Error("marked error no longer matches the inner error")
	}
	if !errors.Is(marked, ErrCRC) {
		t.Error("marked error does not match its kind")
	}
}
