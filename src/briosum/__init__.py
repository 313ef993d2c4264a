"""briosum: desk-scale abstractive summarization with ranking-aware training.

A word-level corpus pipeline, ROUGE scoring, a from-scratch encoder-decoder
transformer with exact reverse-mode gradients, Adam/Adafactor optimizers,
greedy/beam/diverse-beam decoding, contrastive candidate-ranking training
with an iterated loop, and a reproducible experiment CLI.
"""

from .autodiff import Tensor, no_grad
from .brio import (
    BrioConfig,
    CandSum,
    FinetuneConfig,
    RankedCandidateSet,
    brio_loop,
    brio_loss,
    brio_train_stage,
    contrastive_loss,
    evaluate,
    finetune_stage,
    generate_candidate_sets,
    generate_candidates,
    kendall_tau,
)
from .cli import ExperimentConfig, ReportRow, emit_report, run_pipeline
from .corpus import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    UNK_ID,
    CorpusSplit,
    Document,
    TokenizedExample,
    Vocabulary,
    build_vocab,
    decode_tokens,
    encode,
    load_corpus,
    split_corpus,
)
from .decode import (
    DecodeConfig,
    Hypothesis,
    beam_search,
    diverse_beam_search,
    diverse_beam_searches,
    greedy_decode,
    greedy_decodes,
)
from .model import (
    ModelConfig,
    ModelParams,
    forward,
    init_params,
    load_checkpoint,
    mle_loss,
    save_checkpoint,
)
from .optim import OptimizerState, init_optimizer, optimizer_step, warmup_schedule
from .rouge import RougeScore, RougeTriple, quality_score, rouge_l, rouge_n

__version__ = "0.1.0"

__all__ = [
    "BOS_ID",
    "BrioConfig",
    "CandSum",
    "CorpusSplit",
    "DecodeConfig",
    "Document",
    "EOS_ID",
    "ExperimentConfig",
    "FinetuneConfig",
    "Hypothesis",
    "ModelConfig",
    "ModelParams",
    "OptimizerState",
    "PAD_ID",
    "RankedCandidateSet",
    "ReportRow",
    "RougeScore",
    "RougeTriple",
    "Tensor",
    "TokenizedExample",
    "UNK_ID",
    "Vocabulary",
    "beam_search",
    "brio_loop",
    "brio_loss",
    "brio_train_stage",
    "build_vocab",
    "contrastive_loss",
    "decode_tokens",
    "diverse_beam_search",
    "diverse_beam_searches",
    "emit_report",
    "encode",
    "evaluate",
    "finetune_stage",
    "forward",
    "generate_candidate_sets",
    "generate_candidates",
    "greedy_decode",
    "greedy_decodes",
    "init_optimizer",
    "init_params",
    "kendall_tau",
    "load_checkpoint",
    "load_corpus",
    "mle_loss",
    "no_grad",
    "optimizer_step",
    "quality_score",
    "rouge_l",
    "rouge_n",
    "run_pipeline",
    "save_checkpoint",
    "split_corpus",
    "warmup_schedule",
]
