"""Large-scale training-data operations over document tables:
deduplication (exact, MinHash-LSH, SimHash, n-gram Jaccard, containment,
content-defined chunks), text analysis (language ID, quality scoring,
token counts, fingerprints) and corpus curation. All Ray-Data-first:
vectorized map_batches + pre-aggregated groupbys, with keyed work on the
engine's hash exchange (``sagan_ray.exchange``); this package is its
client, and the engine core never imports it.

Submodules load on first use of one of their names (PEP 562): a Ray
worker that imports one submodule does not import the rest."""

import importlib

_EXPORTS = {
    "dedup": """
        cdc_chunk_hashes cdc_chunk_stats cdc_coverage_vs_prior
        connected_components ngram_containment_pairs normalize_text_col
        dedup_against_prior dedup_cluster_best dedup_cluster_reps
        exact_dedup fuzzy_dedup_against_prior exact_dedup_normalized
        minhash_join minhash_lsh_candidates minhash_lsh_dedup
        ngram_jaccard_pairs simhash_dedup verify_pairs_jaccard
    """,
    "curate": """
        blocklist_flags decontaminate split_by_cluster group_topk
        mix_sources pii_pseudonymize pii_redact
        sample_balanced sample_bottomk sample_per_group
        sample_stratified sample_token_budget
        sample_token_budget_by_group sample_weighted shuffle_shards
    """,
    "sketch": "bloom_membership cms_word_counts hll_vocab",
    "pack": "chunk_documents pack_sequences",
    "stats": "group_percentiles percentiles rank_normalize",
    "joins": "hash_join",
    "textstats": """
        bigram_nll byte_entropy collocations corpus_stats cross_doc_dup
        distinctive_terms fingerprint heavy_hitters langid quality
        remove_dup_spans repetition source_divergence source_overlap
        token_counts unigram_nll
    """,
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items()
              for name in names.split()}


def __getattr__(name: str):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{mod}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
