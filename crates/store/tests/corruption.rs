//! Round-trip and corruption-hardening tests of the QUQM artifact store.
//!
//! The headline property: flipping **any** single byte of a saved artifact
//! yields a structured [`StoreError`] from a cold start (`open`,
//! `load_all` and every QUB record, as an integer-served model reads them)
//! — never a panic, never a silently wrong model, never a huge allocation.
//! This holds
//! because every byte of a QUQM file is covered by exactly one CRC-32
//! (header, metadata, manifest, or a chunk), and a single-byte flip always
//! changes a CRC-32.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use quq_core::pipeline::{calibrate, PtqConfig, PtqTables};
use quq_core::quantizer::QuqMethod;
use quq_store::format::{decode_manifest, encode_manifest, qub_key};
use quq_store::{
    crc32, Artifact, ArtifactWriter, Chunk, ChunkInfo, CodecChoice, CodecStack, FsStorage,
    MemStorage, Storage, StoreError, WriteOptions,
};
use quq_vit::{Dataset, ModelConfig, OpKind, OpSite, VitModel};

static COUNTER: AtomicUsize = AtomicUsize::new(0);

/// Everything a cold start of an integer-served model reads: the model and
/// tables, then every stored QUB record.
fn cold_start(art: Artifact) -> Result<(), StoreError> {
    art.load_all()?;
    for site in art.qub_sites() {
        art.load_qub(site)?;
    }
    Ok(())
}

fn temp_path(tag: &str) -> PathBuf {
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("quqm-test-{}-{tag}-{n}.quqm", std::process::id()))
}

fn calibrated() -> (VitModel, PtqTables) {
    let config = ModelConfig::test_config();
    let model = VitModel::synthesize(config, 11);
    let data = Dataset::calibration(model.config(), 4, 3);
    let tables = calibrate(
        &QuqMethod::without_optimization(),
        &model,
        &data,
        PtqConfig::full_w8a8(),
    )
    .expect("calibration succeeds");
    (model, tables)
}

/// One saved artifact, built once and shared by every test case.
fn artifact_bytes() -> &'static Vec<u8> {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let (model, tables) = calibrated();
        let path = temp_path("fixture");
        ArtifactWriter::save(&model, &tables, &path).expect("save succeeds");
        let bytes = fs::read(&path).expect("read artifact back");
        let _ = fs::remove_file(&path);
        bytes
    })
}

/// The same model saved with a forced codec stack on **every** chunk —
/// QUB records included, which Auto would normally keep raw. Exercises the
/// compressed decode paths under the byte-flip property.
fn forced_artifact_bytes(
    stack: fn() -> CodecStack,
    slot: &'static OnceLock<Vec<u8>>,
) -> &'static Vec<u8> {
    slot.get_or_init(|| {
        let (model, tables) = calibrated();
        let mem = MemStorage::new();
        let options = WriteOptions {
            codec: CodecChoice::Force(stack()),
        };
        let report =
            ArtifactWriter::save_on_with(&model, &tables, &mem, "f.quqm", &options).expect("save");
        assert!(
            report.chunks.iter().all(|c| !c.stack.is_raw()),
            "Force must compress every chunk"
        );
        mem.get("f.quqm").expect("object stored").to_vec()
    })
}

/// The fixture model saved with every chunk raw.
fn raw_artifact_bytes() -> &'static Vec<u8> {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let (model, tables) = calibrated();
        let mem = MemStorage::new();
        let options = WriteOptions {
            codec: CodecChoice::Raw,
        };
        ArtifactWriter::save_on_with(&model, &tables, &mem, "r.quqm", &options).expect("save");
        mem.get("r.quqm").expect("object stored").to_vec()
    })
}

fn shuffle_lz_artifact_bytes() -> &'static Vec<u8> {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    forced_artifact_bytes(|| CodecStack::shuffle_lz(4), &BYTES)
}

fn rc_artifact_bytes() -> &'static Vec<u8> {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    forced_artifact_bytes(CodecStack::rc, &BYTES)
}

#[test]
fn save_open_load_roundtrip_is_exact() {
    let (model, tables) = calibrated();
    let path = temp_path("roundtrip");
    let written = ArtifactWriter::save(&model, &tables, &path).expect("save");
    assert_eq!(written, fs::metadata(&path).expect("stat").len());

    let art = Artifact::open(&path).expect("open");
    assert_eq!(art.model_config(), model.config());
    assert_eq!(art.ptq_config(), tables.config());
    assert_eq!(art.method(), "QUQ");
    assert_eq!(art.size_bytes(), written);

    // Every manifest chunk loads and checksum-verifies.
    for info in art.chunks().to_vec() {
        art.load_site(&info.key).unwrap_or_else(|e| {
            panic!("chunk {:?} failed to load: {e}", info.key);
        });
    }
    assert!(matches!(
        art.load_site("no/such/chunk"),
        Err(StoreError::MissingChunk(_))
    ));

    let (loaded_model, loaded_tables) = art.load_all().expect("load_all");
    // Model tensors are restored bit-exactly.
    assert_eq!(loaded_model.weights(), model.weights());
    // Quantizer parameters are restored exactly (raw f32 scale factors).
    for (key, q) in tables.activations() {
        let loaded = loaded_tables.activation(key).expect("activation present");
        assert_eq!(loaded.quq_params(), q.quq_params(), "activation {key:?}");
    }
    for (site, q) in tables.weight_quantizers() {
        let loaded = loaded_tables
            .weight_quantizer(site)
            .expect("weight present");
        assert_eq!(loaded.quq_params(), q.quq_params(), "weight {site}");
    }
    // Stored QUB records decode to the model's weights, fake-quantized by
    // the in-memory tables.
    for site in art.qub_sites() {
        let qub = art.load_qub(site).expect("qub loads");
        let inmem = tables
            .weight_quantizer(&site)
            .and_then(|q| q.quq_params())
            .expect("site has QUQ params");
        let weight = model.weights().linear_weight(model.config(), site);
        let expect = inmem.fake_quantize_tensor(weight.expect("site is a linear"));
        assert_eq!(qub.dequantize().data(), expect.data(), "site {site}");
    }
    let _ = fs::remove_file(&path);
}

#[test]
fn save_leaves_no_temp_file_behind() {
    let (model, tables) = calibrated();
    let path = temp_path("atomic");
    ArtifactWriter::save(&model, &tables, &path).expect("save");
    let dir = path.parent().expect("parent dir");
    let stem = path
        .file_stem()
        .expect("stem")
        .to_string_lossy()
        .to_string();
    let leftovers: Vec<_> = fs::read_dir(dir)
        .expect("read dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().to_string())
        .filter(|n| n.contains(&stem) && n.contains("tmp"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "temp files left behind: {leftovers:?}"
    );
    let _ = fs::remove_file(&path);
}

#[test]
fn truncated_artifact_is_rejected_at_every_length() {
    let bytes = artifact_bytes();
    // Check a spread of truncation points including the structural
    // boundaries near the start and the final byte.
    let mut cuts: Vec<usize> = (0..64.min(bytes.len())).collect();
    cuts.extend((1..=8).map(|k| bytes.len() - k));
    cuts.push(bytes.len() / 2);
    for cut in cuts {
        let path = temp_path("trunc");
        fs::write(&path, &bytes[..cut]).expect("write truncated");
        let outcome = Artifact::open(&path).and_then(cold_start);
        assert!(outcome.is_err(), "truncation to {cut} bytes was accepted");
        let _ = fs::remove_file(&path);
    }
}

#[test]
fn params_tables_load_standalone() {
    let bytes = artifact_bytes();
    let path = temp_path("tables");
    fs::write(&path, bytes).expect("write");
    let art = Artifact::open(&path).expect("open");
    match art
        .load_site("params/activations")
        .expect("activations chunk")
    {
        Chunk::ActivationParams(v) => assert!(!v.is_empty()),
        other => panic!("wrong chunk kind: {other:?}"),
    }
    match art.load_site("params/weights").expect("weights chunk") {
        Chunk::WeightParams(v) => assert!(!v.is_empty()),
        other => panic!("wrong chunk kind: {other:?}"),
    }
    let _ = fs::remove_file(&path);
}

/// Rewrites the artifact header's declared block lengths and fixes up the
/// header CRC, producing a file whose header is *CRC-valid* but lies about
/// how big the metadata/manifest blocks are.
fn with_header_lengths(bytes: &[u8], meta_len: u64, manifest_len: u64) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[8..16].copy_from_slice(&meta_len.to_le_bytes());
    out[16..24].copy_from_slice(&manifest_len.to_le_bytes());
    let crc = crc32(&out[..24]);
    out[24..28].copy_from_slice(&crc.to_le_bytes());
    out
}

fn open_bytes(tag: &str, bytes: &[u8]) -> Result<(), StoreError> {
    let path = temp_path(tag);
    fs::write(&path, bytes).expect("write artifact");
    let outcome = Artifact::open(&path).and_then(cold_start);
    let _ = fs::remove_file(&path);
    outcome
}

/// A header whose declared lengths are huge — but whose CRC is *valid*, so
/// the checksum cannot save us — must produce a structured format error,
/// never a length-sized allocation. (Pre-`Storage`, `read_checked_block`
/// allocated `vec![0u8; len]` straight from these fields; every read now
/// goes through `Storage::read_range`, which clamps against the real
/// object size before allocating.)
#[test]
fn hostile_header_lengths_with_valid_crc_are_rejected() {
    let bytes = artifact_bytes();
    let real_meta = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let real_manifest = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let hostile = [
        (u64::MAX, real_manifest),
        (real_meta, u64::MAX),
        (u64::MAX / 2, u64::MAX / 2),
        (1 << 40, real_manifest), // "1 TiB of metadata"
        (real_meta, 1 << 40),
        (bytes.len() as u64, real_manifest), // fits u64 math, overruns file
        (real_meta, bytes.len() as u64),
    ];
    for (meta_len, manifest_len) in hostile {
        let corrupt = with_header_lengths(bytes, meta_len, manifest_len);
        match open_bytes("hostile-header", &corrupt) {
            Err(StoreError::Format(_)) => {}
            other => panic!(
                "meta_len={meta_len} manifest_len={manifest_len}: \
                 expected StoreError::Format, got {other:?}"
            ),
        }
    }
}

/// `bytes` with its manifest entries rewritten by `edit`, re-encoded to the
/// same length and re-checksummed, so only the structural checks can
/// refuse it.
fn with_manifest(bytes: &[u8], edit: impl FnOnce(&mut Vec<ChunkInfo>)) -> Vec<u8> {
    let meta_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
    let manifest_len = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
    let start = 28 + meta_len + 4;
    let mut entries = decode_manifest(&bytes[start..start + manifest_len]).expect("decodes");
    edit(&mut entries);
    let manifest = encode_manifest(&entries);
    assert_eq!(manifest.len(), manifest_len, "fixed-width fields");
    let mut out = bytes.to_vec();
    out[start..start + manifest_len].copy_from_slice(&manifest);
    let crc_at = start + manifest_len;
    out[crc_at..crc_at + 4].copy_from_slice(&crc32(&manifest).to_le_bytes());
    out
}

/// A manifest entry claiming a huge chunk length — re-encoded with valid
/// manifest and header CRCs — must be rejected structurally, and the huge
/// length must never reach an allocation.
#[test]
fn hostile_manifest_chunk_length_with_valid_crcs_is_rejected() {
    let bytes = artifact_bytes();
    let mut chunks = 0;
    with_manifest(bytes, |entries| chunks = entries.len());
    for victim in [0, chunks / 2, chunks - 1] {
        for huge in [u64::MAX, u64::MAX / 2, 1 << 40, bytes.len() as u64] {
            let corrupt = with_manifest(bytes, |entries| entries[victim].length = huge);
            match open_bytes("hostile-manifest", &corrupt) {
                Err(StoreError::Format(_)) => {}
                other => panic!(
                    "chunk {victim} length={huge}: expected StoreError::Format, got {other:?}"
                ),
            }
        }
    }
}

/// A model tensor or QUB record whose shape disagrees with the config —
/// every CRC valid, every chunk consistent with its own declared shape —
/// is refused when the artifact is opened. A QUB record with its weight's
/// element count but transposed dimensions would otherwise reach the
/// integer GEMM's dimension asserts on a serving worker.
#[test]
fn shapes_that_disagree_with_the_model_are_refused_at_open() {
    let bytes = raw_artifact_bytes();
    let position =
        |entries: &[ChunkInfo], key: &str| entries.iter().position(|c| c.key == key).expect(key);

    // A model tensor declared `[d, h]` where the config says `[h, d]`.
    let tensor = with_manifest(bytes, |entries| {
        let i = position(entries, "model/s0/b0/fc1_w");
        entries[i].shape.reverse();
    });
    // `qub/block0.Fc1` holding the (valid, `[d, h]`) Fc2 record instead:
    // the two records are the same length, so the layout still tiles.
    let (fc1, fc2) = (
        qub_key(OpSite::in_block(0, OpKind::Fc1)),
        qub_key(OpSite::in_block(0, OpKind::Fc2)),
    );
    let mut copy = (0, 0..0);
    let mut qub = with_manifest(bytes, |entries| {
        let (i, j) = (position(entries, &fc1), position(entries, &fc2));
        let (to, from) = (&entries[i], &entries[j]);
        assert_eq!(to.length, from.length);
        copy = (to.offset, from.offset..from.offset + from.length);
        entries[i].shape = entries[j].shape.clone();
        entries[i].crc = entries[j].crc;
    });
    let (to, from) = copy;
    qub.copy_within(from.start as usize..from.end as usize, to as usize);

    for (what, corrupt) in [("model tensor", tensor), ("QUB record", qub)] {
        let mem = MemStorage::new();
        mem.write("a", &corrupt).expect("mem write");
        match Artifact::open_on(Arc::new(mem), "a").map(drop) {
            Err(StoreError::Format(m)) => assert!(m.contains("shape"), "{what}: {m}"),
            other => panic!("{what}: expected StoreError::Format, got {other:?}"),
        }
    }
}

/// A QUB record whose header claims more payload than its CRC-valid chunk
/// holds is a format fault in verified bytes, not an I/O error.
#[test]
fn qub_record_cut_short_inside_a_valid_chunk_is_a_format_error() {
    let bytes = raw_artifact_bytes();
    let site = OpSite::in_block(0, OpKind::Fc1);
    let mut chunk = 0..0;
    with_manifest(bytes, |entries| {
        let c = entries.iter().find(|c| c.key == qub_key(site)).unwrap();
        chunk = c.offset as usize..(c.offset + c.length) as usize;
    });
    // Rank 1 (a 24-byte header) declaring one element more than the bytes
    // the record's rank-2 header leaves behind it.
    let mut record = bytes[chunk.clone()].to_vec();
    let elements = record.len() as u64 - 24 + 1;
    record[12..16].copy_from_slice(&1u32.to_le_bytes());
    record[16..24].copy_from_slice(&elements.to_le_bytes());
    let mut corrupt = with_manifest(bytes, |entries| {
        let c = entries.iter_mut().find(|c| c.key == qub_key(site)).unwrap();
        c.crc = crc32(&record);
    });
    corrupt[chunk].copy_from_slice(&record);
    let mem = MemStorage::new();
    mem.write("a", &corrupt).expect("mem write");
    let art = Artifact::open_on(Arc::new(mem), "a").expect("the manifest is intact");
    match art.load_qub(site) {
        Err(StoreError::Format(m)) => assert!(m.contains("truncated QUB payload"), "{m}"),
        other => panic!("expected StoreError::Format, got {other:?}"),
    }
}

/// The same calibrated model saved through the filesystem backend and the
/// in-memory backend must produce byte-identical artifacts, and an
/// artifact opened from either backend must reconstruct the same model.
#[test]
fn artifact_roundtrips_byte_identically_through_both_backends() {
    let (model, tables) = calibrated();

    let path = temp_path("backends");
    let fs_written = ArtifactWriter::save(&model, &tables, &path).expect("fs save");
    let fs_bytes = fs::read(&path).expect("read back");

    let mem = Arc::new(MemStorage::new());
    let mem_written = ArtifactWriter::save_on(&model, &tables, &*mem, "m.quqm").expect("mem save");
    let mem_bytes = mem.get("m.quqm").expect("object stored");

    assert_eq!(fs_written, mem_written);
    assert_eq!(&fs_bytes, &*mem_bytes, "backends wrote different bytes");

    let from_fs = Artifact::open(&path).expect("fs open");
    let from_mem = Artifact::open_on(mem.clone() as Arc<dyn Storage>, "m.quqm").expect("mem open");
    assert_eq!(from_fs.size_bytes(), from_mem.size_bytes());
    assert_eq!(from_fs.chunks(), from_mem.chunks());

    let (fs_model, _) = from_fs.load_all().expect("fs load_all");
    let (mem_model, _) = from_mem.load_all().expect("mem load_all");
    assert_eq!(fs_model.weights(), mem_model.weights());
    assert_eq!(mem_model.weights(), model.weights());
    let _ = fs::remove_file(&path);
}

/// Compressed (forced-stack) artifacts must reconstruct the same model,
/// bit for bit, as the default Auto artifact; and a header claiming any
/// version but 2 is refused as unsupported, not parsed.
#[test]
fn compressed_artifacts_load_bit_identically_and_v1_is_refused() {
    let open = |bytes: &[u8], tag: &str| {
        let mem = MemStorage::new();
        mem.write(tag, bytes).expect("mem write");
        Artifact::open_on(Arc::new(mem) as Arc<dyn Storage>, tag)
    };
    let stored_and_raw = |art: &Artifact| {
        art.chunks()
            .iter()
            .fold((0, 0), |(s, r), c| (s + c.length, r + c.raw_length))
    };
    let auto = open(artifact_bytes(), "auto").expect("open");
    let (auto_model, _) = auto.load_all().expect("load_all");
    for (bytes, tag) in [
        (shuffle_lz_artifact_bytes(), "shuffle-lz"),
        (rc_artifact_bytes(), "rc"),
    ] {
        let art = open(bytes, tag).expect("open");
        let (model, _) = art.load_all().expect("load_all");
        assert_eq!(model.weights(), auto_model.weights(), "{tag}");
    }
    // The codec work must actually pay: the Auto and shuffle-lz files
    // store fewer bytes than their chunks decode to.
    for (bytes, tag) in [
        (artifact_bytes(), "auto"),
        (shuffle_lz_artifact_bytes(), "shuffle-lz"),
    ] {
        let (stored, raw) = stored_and_raw(&open(bytes, tag).expect("open"));
        assert!(stored < raw, "{tag}: {stored} stored of {raw} raw bytes");
    }

    // A CRC-valid header naming version 1 (or anything but 2) is refused.
    for version in [1u32, 3] {
        let mut old = artifact_bytes().clone();
        old[4..8].copy_from_slice(&version.to_le_bytes());
        let crc = crc32(&old[..24]);
        old[24..28].copy_from_slice(&crc.to_le_bytes());
        match open_bytes("old-version", &old) {
            Err(StoreError::Unsupported(msg)) => assert!(msg.contains("version"), "{msg}"),
            other => panic!("version {version}: expected Unsupported, got {other:?}"),
        }
    }
}

/// A mid-write storage failure must surface the error *and* leave no
/// stranded `.tmp.` file behind: the drop guard unlinks the partial file.
#[test]
fn failed_save_cleans_up_its_temp_file() {
    let (model, tables) = calibrated();
    let dir = std::env::temp_dir().join(format!("quqm-failwrite-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("mkdir");
    // Fail at several points through the write, including 0 bytes in.
    for fail_after in [0usize, 1, 28, 4096] {
        let storage = FsStorage::failing_after(dir.clone(), fail_after);
        let err = ArtifactWriter::save_on(&model, &tables, &storage, "doomed.quqm");
        assert!(matches!(err, Err(StoreError::Io(_))), "fail@{fail_after}");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .expect("read dir")
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().to_string())
            .collect();
        assert!(
            leftovers.is_empty(),
            "fail@{fail_after} left files behind: {leftovers:?}"
        );
    }
    // The same directory still accepts a clean save afterwards.
    let storage = FsStorage::new(dir.clone());
    ArtifactWriter::save_on(&model, &tables, &storage, "ok.quqm").expect("clean save");
    assert!(dir.join("ok.quqm").exists());
    let _ = fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Flipping any single byte anywhere in the artifact must produce a
    /// structured error, never a panic or a silently-loaded wrong model.
    #[test]
    fn any_single_byte_flip_is_detected(pos_seed in 0u64..u64::MAX, bit in 0u32..8) {
        let bytes = artifact_bytes();
        let pos = (pos_seed % bytes.len() as u64) as usize;
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 1 << bit;

        let path = temp_path("flip");
        fs::write(&path, &corrupt).expect("write corrupted artifact");
        let outcome = Artifact::open(&path).and_then(cold_start);
        let _ = fs::remove_file(&path);
        match outcome {
            Err(_) => {} // structured StoreError: exactly what we want
            Ok(()) => prop_assert!(
                false,
                "flip at byte {pos} bit {bit} loaded without an error"
            ),
        }
    }

    /// The flip property holds just as hard when chunks are compressed:
    /// the CRC guards the *stored* bytes, so corruption is caught before
    /// a codec ever runs, and the range decoder is total regardless. The
    /// Auto fixture rides along to cover the in-memory backend too.
    #[test]
    fn single_byte_flips_in_compressed_artifacts_are_detected(
        pos_seed in 0u64..u64::MAX,
        bit in 0u32..8,
        which in 0usize..3,
    ) {
        let bytes = match which {
            0 => shuffle_lz_artifact_bytes(),
            1 => rc_artifact_bytes(),
            _ => artifact_bytes(),
        };
        let pos = (pos_seed % bytes.len() as u64) as usize;
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 1 << bit;

        let mem = MemStorage::new();
        mem.write("flip.quqm", &corrupt).expect("mem write");
        let outcome =
            Artifact::open_on(Arc::new(mem) as Arc<dyn Storage>, "flip.quqm").and_then(cold_start);
        match outcome {
            Err(_) => {}
            Ok(()) => prop_assert!(
                false,
                "fixture {which}: flip at byte {pos} bit {bit} loaded without an error"
            ),
        }
    }

    /// Arbitrary declared block lengths (with the header CRC fixed up so
    /// the lie is checksum-valid) must never panic, OOM, or load: anything
    /// that disagrees with the real file layout is a structured error.
    #[test]
    fn any_header_lengths_are_handled_structurally(
        meta_len in prop_oneof![0u64..(1 << 20), (1 << 20)..u64::MAX],
        manifest_len in prop_oneof![0u64..(1 << 20), (1 << 20)..u64::MAX],
    ) {
        let bytes = artifact_bytes();
        let real_meta = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        let real_manifest = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        let corrupt = with_header_lengths(bytes, meta_len, manifest_len);
        let outcome = open_bytes("prop-header", &corrupt);
        if meta_len == real_meta && manifest_len == real_manifest {
            prop_assert!(outcome.is_ok(), "true lengths must keep loading");
        } else {
            prop_assert!(
                outcome.is_err(),
                "lengths ({meta_len}, {manifest_len}) accepted but the real \
                 layout is ({real_meta}, {real_manifest})"
            );
        }
    }
}
