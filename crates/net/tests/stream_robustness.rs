//! Streaming-decoder robustness: every `WireMsg` variant through the
//! TCP frame decoder, split at every possible byte boundary, plus
//! corrupt tails. The contract: complete units decode byte-identically
//! no matter how the stream fragments, and malformed bytes surface as
//! typed errors — never a panic, never a silent loss. Coalesced
//! multi-unit packets go through the same split sweep — the packet a
//! socket lane really ships included — and the length-prefix
//! pre-reservation is held to its bounds.

use std::sync::mpsc::sync_channel;

use hyperdex_core::KeywordSet;
use hyperdex_net::stream::{encode_unit, push_unit, StreamDecoder, CLIENT_DEST};
use hyperdex_runtime::wire::{exemplars, insert_frame, WireError, WireMsg};
use hyperdex_runtime::{Fabric, PacketPool};

#[test]
fn every_variant_survives_every_split_point() {
    for (dest, msg) in exemplars().into_iter().enumerate() {
        let frame = msg.encode();
        let unit = encode_unit(dest as u32, &frame);
        for split in 0..=unit.len() {
            let mut dec = StreamDecoder::new();
            dec.push(&unit[..split]);
            if let Ok(Some(early)) = dec.next_unit() {
                assert_eq!(
                    split,
                    unit.len(),
                    "unit completed early at split {split} for {msg:?}"
                );
                assert_eq!(early.frame, frame);
                continue;
            }
            dec.push(&unit[split..]);
            let got = dec
                .next_unit()
                .expect("well-formed unit")
                .expect("complete after both halves");
            assert_eq!(got.dest, dest as u32, "dest mangled at split {split}");
            assert_eq!(got.frame, frame, "frame mangled at split {split}");
            assert_eq!(
                WireMsg::decode_exact(&got.frame).expect("decodable"),
                msg,
                "decode diverged at split {split}"
            );
            assert_eq!(dec.buffered(), 0, "leftover bytes at split {split}");
        }
    }
}

#[test]
fn non_canonical_keyword_frames_survive_every_split_point() {
    // The keyword validator sees the frame only after reassembly, so
    // however the stream tears, a sloppy spelling reads back as the
    // set it names and a broken one as its typed error.
    let expect = WireMsg::Insert {
        object: 1,
        keywords: KeywordSet::from_strs(["日本", "éa", "mp3"]).unwrap(),
    };
    let spellings: [&[&str]; 4] = [
        &["mp3", "éa", "日本"],
        &["日本", "mp3", "éa"],
        &["MP3", " Éa", "日本", "mp3"],
        &["éa", "日本\n", "Mp3", "ÉA"],
    ];
    for fields in spellings {
        let frame = insert_frame(fields);
        let unit = encode_unit(3, &frame);
        for split in 0..=unit.len() {
            let mut dec = StreamDecoder::new();
            dec.push(&unit[..split]);
            dec.push(&unit[split..]);
            let got = dec.next_unit().expect("well-formed").expect("complete");
            assert_eq!(got.frame, frame, "frame mangled at split {split}");
            assert_eq!(WireMsg::decode_exact(&got.frame).as_ref(), Ok(&expect));
            assert_eq!(dec.buffered(), 0);
        }
    }
    assert_eq!(expect.encode(), insert_frame(spellings[0]));

    // A keyword cut mid-character by its own length field.
    let mut torn = insert_frame(&["日本"]);
    let last = torn.len() - 1;
    torn.truncate(last);
    torn[..4].copy_from_slice(&((last - 4) as u32).to_le_bytes());
    let at = 4 + 1 + 8 + 2;
    torn[at..at + 2].copy_from_slice(&5u16.to_le_bytes());
    let mut dec = StreamDecoder::new();
    dec.push(&encode_unit(0, &torn));
    let unit = dec.next_unit().expect("framing intact").expect("complete");
    assert_eq!(WireMsg::decode_exact(&unit.frame), Err(WireError::BadUtf8));
}

#[test]
fn whole_conversation_fed_one_byte_at_a_time() {
    let msgs = exemplars();
    let mut stream = Vec::new();
    for msg in &msgs {
        push_unit(&mut stream, CLIENT_DEST, &msg.encode());
    }
    let mut dec = StreamDecoder::new();
    let mut got = Vec::new();
    for byte in stream {
        dec.push(&[byte]);
        while let Some(unit) = dec.next_unit().expect("well-formed stream") {
            assert_eq!(unit.dest, CLIENT_DEST);
            got.push(WireMsg::decode_exact(&unit.frame).expect("decodable"));
        }
    }
    assert_eq!(got, msgs);
    assert_eq!(dec.buffered(), 0);
}

#[test]
fn trailing_garbage_inside_a_frame_is_a_typed_error() {
    // A unit whose header over-declares the body by one byte: the
    // decoder yields it (framing is consistent), but the frame decode
    // reports the surplus instead of panicking.
    for msg in exemplars() {
        let frame = msg.encode();
        let mut padded = frame.clone();
        padded.push(0xAA);
        let body_len = (padded.len() - 4) as u32;
        padded[..4].copy_from_slice(&body_len.to_le_bytes());
        let unit_bytes = encode_unit(0, &padded);
        let mut dec = StreamDecoder::new();
        dec.push(&unit_bytes);
        let unit = dec.next_unit().expect("framing intact").expect("complete");
        assert!(
            matches!(
                WireMsg::decode_exact(&unit.frame),
                Err(WireError::TrailingGarbage { extra: 1 })
            ),
            "padded {msg:?} did not report trailing garbage"
        );
    }
}

#[test]
fn garbage_headers_error_or_wait_but_never_panic() {
    // 257 pseudo-random byte soups: each either stalls (needs more
    // bytes), errors (oversized), or decodes units — whatever happens,
    // no panic and no infinite loop.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for round in 0..257 {
        let len = (round % 40) + 1;
        let mut soup = Vec::with_capacity(len);
        for _ in 0..len {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            soup.push((state >> 33) as u8);
        }
        let mut dec = StreamDecoder::new();
        dec.push(&soup);
        for _ in 0..len + 1 {
            match dec.next_unit() {
                Ok(Some(unit)) => {
                    // Frame-level decode may fail; it must not panic.
                    let _ = WireMsg::decode_exact(&unit.frame);
                }
                Ok(None) => break,
                Err(WireError::Oversized { .. }) => break,
                Err(other) => panic!("unexpected decoder error: {other:?}"),
            }
        }
        // The same soup where an Insert's keyword field belongs, in a
        // well-framed unit: the set validator gets to read it, and
        // whatever it accepts must read back the same.
        let mut frame = ((1 + 8 + soup.len()) as u32).to_le_bytes().to_vec();
        frame.push(0);
        frame.extend_from_slice(&17u64.to_le_bytes());
        frame.extend_from_slice(&soup);
        let mut dec = StreamDecoder::new();
        dec.push(&encode_unit(0, &frame));
        let unit = dec.next_unit().expect("framing intact").expect("complete");
        if let Ok(msg) = WireMsg::decode_exact(&unit.frame) {
            assert_eq!(WireMsg::decode_exact(&msg.encode()), Ok(msg));
        }
    }
}

#[test]
fn coalesced_multi_unit_packets_survive_every_split_point() {
    // One wire packet holding every variant back to back — exactly
    // what the accumulation buffer ships — split at every byte
    // boundary across two pushes.
    let msgs = exemplars();
    let mut packet = Vec::new();
    for (dest, msg) in msgs.iter().enumerate() {
        push_unit(&mut packet, dest as u32, &msg.encode());
    }
    for split in 0..=packet.len() {
        let mut dec = StreamDecoder::new();
        let mut got = Vec::new();
        for half in [&packet[..split], &packet[split..]] {
            dec.push(half);
            while let Some(unit) = dec.next_unit().expect("well-formed packet") {
                assert_eq!(unit.dest, got.len() as u32, "dest order at split {split}");
                got.push(WireMsg::decode_exact(&unit.frame).expect("decodable"));
            }
        }
        assert_eq!(got, msgs, "unit set diverged at split {split}");
        assert_eq!(dec.buffered(), 0, "leftover bytes at split {split}");
    }
}

#[test]
fn a_socket_lanes_packet_is_the_unit_stream_the_decoder_reads() {
    // What a socket lane puts on a writer queue is byte for byte the
    // `[dest][frame]` unit stream `push_unit` writes for the frames
    // appended, in append order, and the decoder splits it cleanly
    // back into them. (The lane's behaviour under full and closed
    // sinks is property-tested against a model in `hyperdex-runtime`'s
    // `transport` tests.)
    let (tx, rx) = sync_channel(1);
    let mut fabric = Fabric::new(3, PacketPool::default());
    fabric.socket_lane(tx, [(0, 5), (2, CLIENT_DEST)]);
    let mut expected = Vec::new();
    for (i, msg) in exemplars().iter().enumerate() {
        let (endpoint, unit_dest) = [(0, 5), (2, CLIENT_DEST)][i % 2];
        fabric.append(endpoint, msg);
        push_unit(&mut expected, unit_dest, &msg.encode());
    }
    fabric.offer(true);
    assert_eq!(fabric.pending(), 0);
    let packet = rx.try_recv().expect("one packet for the whole window");
    assert_eq!(packet, expected);

    let mut dec = StreamDecoder::new();
    dec.push(&packet);
    for (i, msg) in exemplars().iter().enumerate() {
        let unit = dec.next_unit().expect("well-formed").expect("buffered");
        assert_eq!(unit.dest, [5, CLIENT_DEST][i % 2]);
        assert_eq!(WireMsg::decode_exact(&unit.frame).as_ref(), Ok(msg));
    }
    assert_eq!(dec.buffered(), 0, "the packet ends on a unit boundary");
}

#[test]
fn pre_reservation_sizes_to_the_announced_unit_not_beyond() {
    // A torn unit whose header announces more than has arrived: the
    // decoder pre-reserves exactly the announced unit (so the body
    // trickling in never triggers incremental reallocation) and not a
    // byte-ballooning multiple of it.
    let big = WireMsg::PinResults {
        query_id: 1,
        objects: (0..20_000u64).collect(),
    };
    let frame = big.encode();
    let unit = encode_unit(CLIENT_DEST, &frame);
    let mut dec = StreamDecoder::new();
    // Header plus one body byte: enough to announce the full length.
    // The pre-reservation fires on the next write into the buffer.
    dec.push(&unit[..9]);
    assert!(dec.next_unit().expect("no error").is_none());
    let mut chunks = unit[9..].chunks(4096);
    dec.push(chunks.next().expect("body bytes"));
    let reserved = dec.capacity();
    assert!(
        reserved >= unit.len(),
        "decoder did not pre-reserve the announced unit ({reserved} < {})",
        unit.len()
    );
    assert!(
        reserved <= unit.len() * 2,
        "pre-reservation over-allocated: {reserved} bytes for a {}-byte unit",
        unit.len()
    );
    // Trickle the rest in; capacity must not grow past the
    // pre-reservation (that would mean incremental reallocs).
    for chunk in chunks {
        dec.push(chunk);
        assert_eq!(dec.capacity(), reserved, "decoder reallocated mid-unit");
    }
    let got = dec.next_unit().expect("well-formed").expect("complete");
    assert_eq!(got.frame, frame);
}

#[test]
fn oversized_header_does_not_trigger_pre_reservation() {
    // A corrupt header announcing an absurd body must surface as a
    // typed error without the decoder reserving memory for it.
    let mut bad = 0u32.to_le_bytes().to_vec();
    bad.extend_from_slice(&u32::MAX.to_le_bytes());
    let mut dec = StreamDecoder::new();
    dec.push(&bad);
    assert!(
        dec.capacity() < 1024 * 1024,
        "decoder reserved {} bytes for a corrupt header",
        dec.capacity()
    );
    assert!(matches!(dec.next_unit(), Err(WireError::Oversized { .. })));
}

#[test]
fn fill_from_reads_straight_into_the_decoder() {
    // The batched read path: a reader-style loop over an in-memory
    // stream must yield the same units as push(), including across
    // unit boundaries that land mid-read.
    let msgs = exemplars();
    let mut stream = Vec::new();
    for msg in &msgs {
        push_unit(&mut stream, CLIENT_DEST, &msg.encode());
    }
    let mut cursor = std::io::Cursor::new(stream);
    let mut dec = StreamDecoder::new();
    let mut got = Vec::new();
    loop {
        let n = dec.fill_from(&mut cursor).expect("in-memory read");
        if n == 0 {
            break;
        }
        while let Some(unit) = dec.next_unit().expect("well-formed stream") {
            got.push(WireMsg::decode_exact(&unit.frame).expect("decodable"));
        }
    }
    assert_eq!(got, msgs);
    assert_eq!(dec.buffered(), 0);
}
