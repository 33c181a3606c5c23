package proto

import "sync"

// scanPool recycles scanners (and the scratch they grow) for the
// decoders below; the engine's poll path owns its scanners itself.
var scanPool = sync.Pool{New: func() any { return new(EventScan) }}

// withScan runs decode on a pooled scanner primed with data and requires
// the document to end where the decoded value does.
func withScan(data []byte, decode func(s *EventScan) error) error {
	s := scanPool.Get().(*EventScan)
	err := s.reset(data)
	if err == nil {
		err = decode(s)
	}
	if err == nil {
		err = s.finish()
	}
	s.Release()
	scanPool.Put(s)
	return err
}

// UnmarshalJSON splits the flat wire object back into ingredients and
// meta.
func (e *TriggerEvent) UnmarshalJSON(data []byte) error {
	return withScan(data, func(s *EventScan) error {
		if _, err := s.peek(); err != nil {
			return err
		}
		if err := s.event(); err != nil {
			return err
		}
		*e = s.Event(0)
		return nil
	})
}

// UnmarshalJSON decodes every event of the response and replaces Data
// with them, reusing its backing array; a null or absent "data" leaves
// it empty.
func (r *TriggerPollResponse) UnmarshalJSON(data []byte) error {
	return withScan(data, func(s *EventScan) error {
		if err := s.pollResponse(); err != nil {
			return err
		}
		r.Data = s.appendEvents(r.Data[:0])
		if r.Data == nil && s.isArray {
			r.Data = []TriggerEvent{}
		}
		return nil
	})
}

// UnmarshalJSON decodes a push batch through the event scanner — the
// grammar the engine's push ingress reads bodies with (ScanPushBatch) —
// and builds what it found. Data is replaced, emptied by a null or
// absent "data" as for a poll response, each delivery and each event a
// fresh value; a delivery's Events is nil unless its "events" was an
// array.
func (b *PushBatch) UnmarshalJSON(data []byte) error {
	return withScan(data, func(s *EventScan) error {
		if err := s.pushBatch(); err != nil {
			return err
		}
		if !s.isArray {
			b.Data = nil
			return nil
		}
		if b.Data = b.Data[:0]; b.Data == nil {
			b.Data = make([]PushDelivery, 0, len(s.deliveries))
		}
		for i := range s.deliveries {
			identity, lo, hi := s.Delivery(i)
			d := PushDelivery{TriggerIdentity: string(identity)}
			if s.deliveries[i].isArray {
				d.Events = make([]TriggerEvent, 0, hi-lo)
				for j := lo; j < hi; j++ {
					d.Events = append(d.Events, s.Event(j))
				}
			}
			b.Data = append(b.Data, d)
		}
		return nil
	})
}

// ValidateActionResponse checks that body has the shape of an
// ActionResponse — what decoding it into one would have accepted —
// without building anything: the engine only needs to know the service
// acknowledged the action in the protocol's terms.
func ValidateActionResponse(body []byte) error {
	return withScan(body, func(s *EventScan) error {
		return s.object("action response", func(k strSpan) error {
			if !s.keyIs(k, "data") {
				return s.skipValue()
			}
			_, err := s.array("action response data", func() error {
				return s.object("action result", func(k strSpan) error {
					if c := s.data[s.pos]; s.keyIs(k, "id") && c != '"' && c != 'n' {
						return s.mismatch("action result id")
					}
					return s.skipValue()
				})
			})
			return err
		})
	})
}
