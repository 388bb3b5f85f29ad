//! End-to-end CLI workflow: every subcommand chained the way a user would
//! run them, through `leapme_cli::run` (no subprocess needed).

use leapme_cli::run;

fn tmp_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("leapme_cli_workflow");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn args(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

#[test]
fn generate_embed_match_evaluate_cluster_fuse_analyze() {
    let dir = tmp_dir();
    let ds = dir.join("wf_tvs.json");
    let vecs = dir.join("wf_vectors.txt");
    let graph = dir.join("wf_graph.json");
    let model = dir.join("wf_model.json");
    let schema = dir.join("wf_schema.json");

    // generate
    let out = run(&args(&[
        "generate",
        "--domain",
        "tvs",
        "--seed",
        "13",
        "--out",
        ds.to_str().unwrap(),
    ]))
    .unwrap();
    assert!(out.contains("8 sources"), "{out}");

    // stats
    let out = run(&args(&["stats", "--dataset", ds.to_str().unwrap()])).unwrap();
    assert!(out.contains("matching pairs"), "{out}");

    // embed (small config to keep the test quick)
    let out = run(&args(&[
        "embed",
        "--domains",
        "tvs",
        "--dim",
        "12",
        "--epochs",
        "4",
        "--out",
        vecs.to_str().unwrap(),
    ]))
    .unwrap();
    assert!(out.contains("12 dims"), "{out}");

    // match
    let out = run(&args(&[
        "match",
        "--dataset",
        ds.to_str().unwrap(),
        "--embeddings",
        vecs.to_str().unwrap(),
        "--train-fraction",
        "0.8",
        "--seed",
        "13",
        "--out",
        graph.to_str().unwrap(),
        "--save-model",
        model.to_str().unwrap(),
    ]))
    .unwrap();
    assert!(out.contains("scored pairs"), "{out}");
    assert!(model.exists());

    // evaluate
    let out = run(&args(&[
        "evaluate",
        "--dataset",
        ds.to_str().unwrap(),
        "--graph",
        graph.to_str().unwrap(),
    ]))
    .unwrap();
    assert!(out.contains("F1="), "{out}");

    // cluster
    let out = run(&args(&[
        "cluster",
        "--graph",
        graph.to_str().unwrap(),
        "--method",
        "star",
    ]))
    .unwrap();
    assert!(out.contains("clusters"), "{out}");

    // fuse
    let out = run(&args(&[
        "fuse",
        "--dataset",
        ds.to_str().unwrap(),
        "--graph",
        graph.to_str().unwrap(),
        "--out",
        schema.to_str().unwrap(),
    ]))
    .unwrap();
    assert!(out.contains("unified schema"), "{out}");
    assert!(schema.exists());

    // analyze
    let out = run(&args(&[
        "analyze",
        "--dataset",
        ds.to_str().unwrap(),
        "--graph",
        graph.to_str().unwrap(),
    ]))
    .unwrap();
    assert!(out.contains("false positives by category"), "{out}");

    for p in [ds, vecs, graph, model, schema] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn csv_import_to_match_workflow() {
    let dir = tmp_dir();
    let inst = dir.join("wf_instances.csv");
    let align = dir.join("wf_alignments.csv");
    let ds = dir.join("wf_imported.json");

    // Three small sources with aligned properties.
    let mut instances = String::from("source,property,entity,value\n");
    let mut alignments = String::from("source,property,reference\n");
    for (shop, prop) in [("a", "megapixels"), ("b", "resolution"), ("c", "mp count")] {
        for e in 0..4 {
            instances.push_str(&format!("shop{shop},{prop},e{e},{} MP\n", 10 + e));
        }
        alignments.push_str(&format!("shop{shop},{prop},resolution\n"));
        for e in 0..4 {
            instances.push_str(&format!("shop{shop},weight,e{e},{} g\n", 100 + e));
        }
        alignments.push_str(&format!("shop{shop},weight,weight\n"));
    }
    std::fs::write(&inst, instances).unwrap();
    std::fs::write(&align, alignments).unwrap();

    let out = run(&args(&[
        "import",
        "--instances",
        inst.to_str().unwrap(),
        "--alignments",
        align.to_str().unwrap(),
        "--name",
        "shops",
        "--out",
        ds.to_str().unwrap(),
    ]))
    .unwrap();
    assert!(out.contains("3 sources"), "{out}");
    assert!(out.contains("6 matching pairs"), "{out}"); // 2 refs × 3 pairs

    for p in [inst, align, ds] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn helpful_errors() {
    // Unknown command.
    let err = run(&args(&["transmogrify"])).unwrap_err();
    assert!(err.to_string().contains("transmogrify"));
    // Flag without value.
    let err = run(&args(&["generate", "--domain"])).unwrap_err();
    assert!(err.to_string().contains("missing a value"));
    // Missing required flag.
    let err = run(&args(&["generate", "--domain", "tvs"])).unwrap_err();
    assert!(err.to_string().contains("--out"));
}

#[test]
fn retired_quantized_flag_is_a_usage_error_exiting_2() {
    // `--quantized` names no flag: it must neither run nor swallow the
    // flag after it as its value.
    for argv in [
        &["match", "--quantized"][..],
        &["match", "--quantized", "--seed", "5"][..],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_leapme"))
            .args(argv)
            .output()
            .expect("run the leapme binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(
            stderr.contains("--quantized is missing a value"),
            "{argv:?}: {stderr}"
        );
    }
}
