//! Every parser that reads bytes from a socket or a file, driven through
//! one table of hostile inputs: the input cut short at every offset, and
//! each length field set to 0, to its largest accepted value and to one
//! past it. Every case must end in a typed error — a `ByteError` inside an
//! `InvalidData` `io::Error` on the wire, a `StoreError` other than `Io`
//! in the store, a `ByteError` for a QUB record — and none may panic.

use std::io;
use std::sync::Arc;

use quq_core::bytes::{ByteError, ByteReader};
use quq_core::pipeline::{calibrate, PtqConfig};
use quq_core::{read_qub_tensor_bounded, write_qub_tensor, QubCodec, QuqMethod, QuqParams};
use quq_serve::protocol::{decode_response, request_id, write_frame, Request, MAX_FRAME};
use quq_serve::FrameDecoder;
use quq_store::codec::{Codec, Rc};
use quq_store::format::{decode_manifest, decode_metadata};
use quq_store::{crc32, Artifact, ArtifactWriter, CodecSpec, MemStorage, Storage, StoreError};
use quq_tensor::Tensor;
use quq_vit::{Dataset, ModelConfig, VitModel};

/// A wire error must be `InvalidData` carrying the reader's `ByteError`.
fn wire<T>(r: io::Result<T>) -> bool {
    let Err(e) = r else { return false };
    assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
    let typed = e.get_ref().and_then(|e| e.downcast_ref::<ByteError>());
    assert!(typed.is_some(), "untyped wire error: {e}");
    true
}

/// A store error on bytes already in memory is never an I/O error.
fn store<T>(r: Result<T, StoreError>) -> bool {
    match r {
        Ok(_) => false,
        Err(StoreError::Io(e)) => panic!("in-memory bytes gave an I/O error: {e}"),
        Err(_) => true,
    }
}

/// A request is refused or decodes, and `request_id` reads its id bytes
/// whenever there are five.
fn request(b: &[u8]) -> bool {
    let id = ByteReader::new(b.get(1..).unwrap_or_default()).u32("id");
    assert_eq!(request_id(b), id.unwrap_or(0));
    wire(Request::decode(b))
}

/// A finished stream: a partial frame is refused, as the reactor refuses
/// a connection closed mid-frame, and a whole one is decoded as a request.
fn frame(b: &[u8]) -> bool {
    let mut decoder = FrameDecoder::new();
    decoder.extend(b);
    match decoder.next_frame() {
        Ok(frame) => frame.is_none_or(|frame| request(&frame)),
        Err(e) => wire::<()>(Err(e)),
    }
}

/// Opens `bytes` as an artifact, with the header CRC recomputed so that a
/// rewritten length reaches the parser.
fn open(bytes: &[u8]) -> bool {
    let mut bytes = bytes.to_vec();
    if bytes.len() >= 28 {
        let crc = crc32(&bytes[..24]);
        bytes[24..28].copy_from_slice(&crc.to_le_bytes());
    }
    let mem = Arc::new(MemStorage::new());
    mem.write("a", &bytes).unwrap();
    store(Artifact::open_on(mem, "a"))
}

fn hex(s: &str) -> Vec<u8> {
    let byte = |i| u8::from_str_radix(&s[i..i + 2], 16).unwrap();
    (0..s.len()).step_by(2).map(byte).collect()
}

/// Length fields as `(offset, width, largest accepted value)`.
type Lengths<'a> = &'a [(usize, usize, u64)];

/// One row of the table: `input` decodes, its first `cuts` strict
/// prefixes are refused, and so is each length field set to 0, its
/// largest accepted value and one past it (where that fits the field).
fn check(name: &str, input: &[u8], cuts: usize, lengths: Lengths, refuses: &dyn Fn(&[u8]) -> bool) {
    assert!(!refuses(input), "{name}: the valid input is refused");
    for cut in 0..cuts.min(input.len()) {
        assert!(refuses(&input[..cut]), "{name} cut at {cut} decoded");
    }
    for &(at, width, max) in lengths {
        for value in [0, max, max + 1] {
            let mut hostile = input.to_vec();
            hostile[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
            let fits = width == 8 || value >> (8 * width) == 0;
            let what = format!("{name}: length at {at} = {value}");
            assert!(
                !fits || hostile == input || refuses(&hostile),
                "{what} decoded"
            );
        }
    }
}

#[test]
fn every_parser_refuses_truncation_and_hostile_lengths_with_a_typed_error() {
    const ALL: usize = usize::MAX;
    let elements = u64::from(MAX_FRAME / 4);
    // The golden INFER frame: op · id · class · deadline · tenant (u8
    // length at 10) · model (12) · rank (14) · dims (15, 19) · data.
    let infer = hex("01040302010190d003000174016d0201000000020000000000c03f000000c0");
    let dims = [
        (10, 1, 255),
        (12, 1, 255),
        (14, 1, 255),
        (15, 4, elements),
        (19, 4, elements),
    ];
    check("INFER", &infer, ALL, &dims, &request);
    let load = hex("030b00000001620b002f746d702f622e7175716d");
    check("LOAD", &load, ALL, &[(5, 1, 255), (7, 2, 65_535)], &request);
    let shadow = hex("060e000000000463616e64fa00");
    check("SHADOW SET", &shadow, ALL, &[(6, 1, 255)], &request);
    let mut framed = Vec::new();
    write_frame(&mut framed, &infer).unwrap();
    check("frame", &framed, ALL, &[(0, 4, MAX_FRAME.into())], &frame);

    let response = |b: &[u8]| wire(decode_response(b));
    let ok = hex("09000000000100000003000000cdcccc3d00002040000040c0");
    check("OK", &ok, ALL, &[(9, 4, u32::MAX.into())], &response);
    let error = hex("090000000204000000626f6f6d");
    check("ERROR", &error, ALL, &[(5, 4, MAX_FRAME.into())], &response);
    let list = hex(
        "090000000502000764656661756c740140e20100000000002a00000000000000016200070000\
         0000000000000000000000000003000000000000000100000000000000",
    );
    check(
        "LIST",
        &list,
        ALL,
        &[(5, 2, 65_535), (7, 1, 255)],
        &response,
    );
    let shadow = hex("0900000008010463616e64fa0090010000000000008f010000000000000100000000000000");
    check("SHADOW", &shadow, ALL, &[(6, 1, 255)], &response);

    let model = VitModel::synthesize(ModelConfig::test_config(), 5);
    let data = Dataset::calibration(model.config(), 2, 1);
    let method = QuqMethod::without_optimization();
    let tables = calibrate(&method, &model, &data, PtqConfig::full_w8a8()).unwrap();
    let mem = MemStorage::new();
    ArtifactWriter::save_on(&model, &tables, &mem, "a").unwrap();
    let artifact = mem.get("a").unwrap().to_vec();
    let mut r = ByteReader::new(&artifact[8..]);
    let meta_len = r.u64("metadata length").unwrap() as usize;
    let manifest_len = r.u64("manifest length").unwrap() as usize;
    let manifest_at = 28 + meta_len + 4;
    let (parsed, file_len) = (manifest_at + manifest_len + 4, artifact.len() as u64);
    // The artifact is cut only through the blocks `open` parses.
    let header = [(8, 8, file_len), (16, 8, file_len)];
    check("header", &artifact, parsed + 8, &header, &open);
    // Metadata: ids · six u64 dimensions · stage count (u32 at 50) ·
    // stages · widths · coverage · method (u16 length, then "QUQ").
    let metadata = &artifact[28..28 + meta_len];
    let lengths = [(50, 4, 64), (meta_len - 5, 2, 65_535)];
    check("metadata", metadata, ALL, &lengths, &|b| {
        store(decode_metadata(b))
    });
    // Manifest: count · key (u16 length at 4) · kind · offset · length ·
    // decoded length · CRC · codec count · codecs (an id, and a shuffle's
    // stride) · rank · dims.
    let manifest = &artifact[manifest_at..manifest_at + manifest_len];
    let first = &decode_manifest(manifest).unwrap()[0];
    let codecs_at = 4 + 2 + first.key.len() + 1 + 3 * 8 + 4;
    let stride = |c: &CodecSpec| usize::from(matches!(c, CodecSpec::ByteShuffle { .. }));
    let rank_at = codecs_at + 1 + first.stack.0.iter().map(|c| 1 + stride(c)).sum::<usize>();
    let lengths = [
        (0, 4, u32::MAX.into()),
        (4, 2, 65_535),
        (codecs_at, 1, 4),
        (rank_at, 1, 8),
    ];
    check("manifest", manifest, ALL, &lengths, &|b| {
        store(decode_manifest(b))
    });

    // A rank-2 QUB record of 24 elements: rank (u32 at 12) · dims (16, 24).
    let weights = Tensor::from_vec((0..24).map(|i| i as f32 / 20.0 - 0.6).collect(), &[4, 6]);
    let codec = QubCodec::new(QuqParams::uniform(8, 0.1).unwrap());
    let mut qub = Vec::new();
    write_qub_tensor(&mut qub, &codec.encode_tensor(&weights.unwrap()));
    let qub_read = |b: &[u8]| read_qub_tensor_bounded(b, 24).is_err();
    check(
        "QUB record",
        &qub,
        ALL,
        &[(12, 4, 8), (16, 8, 24)],
        &qub_read,
    );
    // One rANS segment: count · tag · symbols − 1 · two (symbol, u16 freq)
    // entries · coded length (u32 at 9) · states and words.
    let raw: Vec<u8> = (0..200).map(|i| if i % 3 == 0 { 66 } else { 65 }).collect();
    let rc = Rc.encode(&raw);
    assert_eq!(rc[..3], [1, 1, 1], "one rANS segment of two symbols");
    let lengths = [(0, 1, 8), (2, 1, 255), (9, 4, rc.len() as u64)];
    check("rc stream", &rc, ALL, &lengths, &|b| {
        store(Rc.decode(b, raw.len()))
    });
}
