"""Input-adaptive transformer layer skipping on plain numpy.

The package trains a tiny decoder-only transformer, fits per-layer skip
routers in a first phase, compensates the skipped computation with
low-rank adapters in a second phase, and serves both through a KV-cache
generation loop whose skip decision is frozen at prefill. An exhaustive
subsequence oracle, an input-agnostic evenly spaced baseline, overlap
metrics, and decode-latency measurement round out the toolkit.
"""

from .bench import LatencyReport, TpotResult, measure_tpot
from .bundle import Bundle, load_bundle, read_sections, save_bundle
from .config import ExperimentConfig, LoraConfig, load_experiment, parse_experiment
from .data import Batch, TaskSpec, encode_batch, generate_dataset, seeded_streams
from .errors import (BadMagicError, BundleError, BundleShapeError,
                     CacheConsistencyError, ConfigError, DatasetError,
                     EnumerationLimitError, MaskError, NumericalError,
                     ShapeError, SkipRouteError, TruncatedFileError,
                     VersionError, VocabularyError)
from .lora import (AdapterSet, LoraAdapter, adapted_matmul, adapted_project,
                   init_adapters, merge)
from .metrics import (SkipStats, bleu_n, collect_skip_stats, read_decision_log,
                      write_decision_log)
from .model import (GenerationResult, KVCache, ModelConfig, ModelWeights,
                    SamplerConfig, decode_step, forward_full, generate,
                    init_model)
from .oracle import (OracleEntry, OracleResult, brute_force_oracle,
                     dataset_exact_match, golden_exact_match,
                     negative_perplexity, subsequence_forward,
                     unified_retained_layers, unified_skip_layers)
from .router import (PASS_THRESHOLD, Router, RouterBank, SkipDecision,
                     generate_with_routers, init_routers, prefill,
                     soft_forward, unify_batch)
from .tensor import Tensor, no_grad
from .tokenizer import (BOS, EOS, PAD, SEP, VOCAB_SIZE, detokenize,
                        frame_pair, frame_prompt)
from .training import (Adam, BandTuneResult, LossBreakdown, TrainConfig,
                       TrainResult, cosine_lr, loss_total,
                       mean_hidden_per_layer, measure_skip_fraction,
                       train_lora, train_model, train_routers,
                       tune_routers_to_band, warm_start_routers)

__all__ = [name for name in dir() if not name.startswith("_")]
