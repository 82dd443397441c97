"""Hierarchical attention essay scorers with per-token gaze heads.

Two architectures share one encoder tower. Words embed, pass through a
same-length 1-d convolution with tanh, and pool into sentence vectors via
additive attention a_i = softmax(v' tanh(W h_i + b)). A forward LSTM reads
the sentence vectors; a second additive attention pools its hidden states
into the essay vector. The self-attention variant scores that vector
directly. The co-attention variant also encodes the prompt's source
article with the same tower, forms the affinity M = H_essay A H_article',
mixes each side by the other's row-softmax, pools both mixtures with their
own attention layers, and concatenates all three summaries before the
modeling layer (dense tanh) and the scalar sigmoid output. The article's
hidden states come from :meth:`EssayScorer.encode_article`, once per
mini-batch in training (one graph, one dropout mask) and once per list of
essays scored through :meth:`EssayScorer.forward_batch`.

:meth:`EssayScorer.forward` builds one essay's graph; an rng means training
and draws its dropout masks. :meth:`EssayScorer.forward_batch` scores in
evaluation only, in plain numpy on the parameters' values, with the graph
ops' own formulas. An essay's sentences form one token block padded with
zero rows, so the PAD row is never read (one gather of the real tokens,
``conv_kernel`` stacked matmuls, a masked word attention); up to ``EVAL_SLICE``
essays form one padded sentence block, which one LSTM time loop advances, each
step over the essays that still have a sentence (arXiv:1604.01946), before the
masked attentions and the output layers. Scores equal ``forward``'s up to the
grouping of floating-point sums: padding regroups a softmax's sum, and a block
row runs as a GEMM where ``forward``'s one-row matmul is a GEMV. At the paper's
dimensions the conv outputs, so the gaze heads, are bit-identical.

Gaze heads are independent linear+sigmoid layers reading the convolution
outputs token by token, so each non-padding token gets one prediction per
head that runs. ``forward`` and ``forward_batch`` run the heads of the
attributes they are asked for, every configured one by default: a training
step asks each essay's forward for the attributes it has labelled rows for
(zero-weight ones too, whose MSE the loss reports), ``training.dev_qwk`` and
``experiments.run_fold``'s test scoring ask for none, as no score reads a
head, and ``training.evaluate_breakdown`` asks for all. When heads run,
``forward`` (the graph path) allocates one (n_tokens, F) token block per
essay: each sentence's encoder writes its outputs into its own rows, and the
heads read the block, with no concatenated copy.

In training, each sentence's embedding, dropout, convolution and tanh are
one graph node (``numerics.encode_tokens``), each attention pool is one
(``numerics.additive_attention``), and so are the modeling layer, the
output layer and each gaze head (``numerics.dense``): a training step
builds about 37 nodes for a 12-sentence essay with five gaze heads, its
root included, and results equal the single ops' bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .gaze import GAZE_ATTRIBUTES
from .numerics import Tensor

ARCHITECTURES = ("self_attention", "co_attention")

# Evaluation scores at most this many essays per sentence block, so its peak
# memory does not grow with the number of essays it scores. Scoring 1,400
# 12-sentence essays at the paper's dimensions raised peak RSS by 23 MB in
# slices and by 131 MB in one block, at the same essays/s (2-core Xeon,
# OpenBLAS); the LSTM's (B, L, 4H) input projection dominates a block.
EVAL_SLICE = 100


@dataclass(frozen=True)
class ModelConfig:
    embedding_dim: int = 50
    conv_kernel: int = 5
    conv_filters: int = 100
    lstm_hidden: int = 100
    modeling_hidden: int = 100
    dropout: float = 0.5
    vocab_size: int = 4000
    gaze_attributes: tuple = ()
    gaze_loss_weights: dict = field(default_factory=dict)
    architecture: str = "self_attention"

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.architecture!r}")
        for name in ("embedding_dim", "conv_kernel", "conv_filters", "lstm_hidden",
                     "modeling_hidden", "vocab_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.conv_kernel % 2 == 0:
            raise ValueError(f"conv_kernel must be odd, got {self.conv_kernel}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        unknown = set(self.gaze_attributes) - set(GAZE_ATTRIBUTES)
        if unknown:
            raise ValueError(f"unknown gaze attributes: {sorted(unknown)}")
        repeated = sorted({a for a in self.gaze_attributes if self.gaze_attributes.count(a) > 1})
        if repeated:
            raise ValueError(f"gaze_attributes lists {repeated} more than once")
        extra = set(self.gaze_loss_weights) - set(self.gaze_attributes)
        if extra:
            raise ValueError(
                f"gaze_loss_weights for unconfigured attributes: {sorted(extra)}")


@dataclass
class ForwardOutput:
    predicted_score: Tensor  # shape (1, 1), value in (0, 1)
    gaze_predictions: dict  # attribute -> Tensor (n_tokens, 1)

    @property
    def score_value(self):
        return float(self.predicted_score.data[0, 0])


def _attend(states, mask, w, b, v):
    """Additive attention (w, b, v) over the masked rows of (B, L, D) states -> (B, D)."""
    return nm._attend(states, w.data, b.data, v.data, mask)[1][:, 0]


class EssayScorer:
    """One scoring model instance; owns its parameters.

    ``article_sentence_ids`` (tokenized, vocabulary-encoded sentences of
    the prompt's source article) is required for the co_attention
    architecture and ignored for self_attention. Gaze heads are
    created last so that runs with and without heads draw identical
    initial values for every shared parameter from the same seed.
    """

    def __init__(self, config, rng, embedding_matrix=None, article_sentence_ids=None):
        self.config = config
        if config.architecture == "co_attention":
            if not article_sentence_ids or all(len(s) == 0 for s in article_sentence_ids):
                raise ValueError("co_attention architecture requires a source article")
            self.article_sentence_ids = article_sentence_ids
        else:
            self.article_sentence_ids = None
        self._params = {}

        def param(name, data):
            self._params[name] = Tensor(data, requires_grad=True, name=name)
            return self._params[name]

        def uniform(name, shape):
            return param(name, rng.uniform(-0.05, 0.05, size=shape))

        def zeros(name, shape):
            return param(name, np.zeros(shape))

        d, f, h = config.embedding_dim, config.conv_filters, config.lstm_hidden
        if embedding_matrix is not None:
            matrix = np.array(embedding_matrix, dtype=np.float64)
            if matrix.shape != (config.vocab_size, d):
                raise ValueError(
                    f"embedding matrix shape {matrix.shape} does not match "
                    f"(vocab_size, embedding_dim) = ({config.vocab_size}, {d})")
            self.embedding = param("embedding", matrix)
        else:
            self.embedding = uniform("embedding", (config.vocab_size, d))
            self.embedding.data[0] = 0.0  # PAD row starts and stays at zero
        self.conv_w = uniform("conv.w", (config.conv_kernel, d, f))
        self.conv_b = zeros("conv.b", (f,))
        self.word_attn_w = uniform("word_attn.w", (f, f))
        self.word_attn_b = zeros("word_attn.b", (f,))
        self.word_attn_v = uniform("word_attn.v", (f, 1))
        self.lstm_wx = uniform("lstm.wx", (f, 4 * h))
        self.lstm_wh = uniform("lstm.wh", (h, 4 * h))
        self.lstm_b = zeros("lstm.b", (4 * h,))
        self.sent_attn_w = uniform("sent_attn.w", (h, h))
        self.sent_attn_b = zeros("sent_attn.b", (h,))
        self.sent_attn_v = uniform("sent_attn.v", (h, 1))
        if config.architecture == "co_attention":
            self.affinity = uniform("coattn.affinity", (h, h))
            self.e2a_attn_w = uniform("coattn.e2a.w", (h, h))
            self.e2a_attn_b = zeros("coattn.e2a.b", (h,))
            self.e2a_attn_v = uniform("coattn.e2a.v", (h, 1))
            self.a2e_attn_w = uniform("coattn.a2e.w", (h, h))
            self.a2e_attn_b = zeros("coattn.a2e.b", (h,))
            self.a2e_attn_v = uniform("coattn.a2e.v", (h, 1))
            modeling_in = 3 * h
        else:
            modeling_in = h
        self.modeling_w = uniform("modeling.w", (modeling_in, config.modeling_hidden))
        self.modeling_b = zeros("modeling.b", (config.modeling_hidden,))
        self.output_w = uniform("output.w", (config.modeling_hidden, 1))
        self.output_b = zeros("output.b", (1,))
        self.gaze_w = {}
        self.gaze_b = {}
        for attribute in config.gaze_attributes:
            self.gaze_w[attribute] = uniform(f"gaze.{attribute}.w", (f, 1))
            self.gaze_b[attribute] = zeros(f"gaze.{attribute}.b", (1,))

    # -- parameter plumbing -------------------------------------------------

    def parameters(self):
        return list(self._params.values())

    def named_parameters(self):
        return dict(self._params)

    def state_dict(self):
        return {name: t.data.copy() for name, t in self._params.items()}

    def load_state_dict(self, arrays):
        missing = set(self._params) - set(arrays)
        extra = set(arrays) - set(self._params)
        if missing or extra:
            raise ValueError(
                f"parameter name mismatch; missing {sorted(missing)}, extra {sorted(extra)}")
        for name, t in self._params.items():
            incoming = np.asarray(arrays[name], dtype=np.float64)
            if incoming.shape != t.data.shape:
                raise ValueError(
                    f"parameter {name}: shape {incoming.shape} does not match {t.data.shape}")
            t.data = incoming.copy()

    def pin_pad_embedding(self):
        """Zero the PAD row's gradient so the PAD vector never moves."""
        if self.embedding.grad is not None:
            self.embedding.grad[0] = 0.0

    # -- forward pieces -----------------------------------------------------

    def _additive_attention(self, states, w, b, v):
        """Pool (n, d) states into (1, d) with a_i = softmax(v' tanh(W h_i + b))."""
        return nm.additive_attention(states, w, b, v)

    def encode_sentence(self, token_ids, rng, out=None):
        """(conv outputs (T, F) or None, sentence vector (1, F), word attention);
        ``out``, when given, is the (T, F) array the conv outputs are written into."""
        if len(token_ids) == 0:
            zero = Tensor(np.zeros((1, self.config.conv_filters)))
            return None, zero, None
        conv = nm.encode_tokens(self.embedding, token_ids, self.conv_w, self.conv_b,
                                self.config.dropout, rng, out=out)
        pooled, alpha = self._additive_attention(
            conv, self.word_attn_w, self.word_attn_b, self.word_attn_v)
        return conv, pooled, alpha

    def _lstm(self, inputs):
        """Forward LSTM over (n, F) rows; returns hidden states (n, H)."""
        return nm.lstm(inputs, self.lstm_wx, self.lstm_wh, self.lstm_b)

    def encode_essay(self, sentence_ids, rng, tokens=None):
        """Run the shared tower; returns (conv outputs per sentence, None for an
        empty one; H; essay vector; sentence attention). ``tokens``, when given,
        is the (n_tokens, F) array the sentences' conv outputs fill in order."""
        conv_outputs = []
        sentence_vectors = []
        start = 0
        for ids in sentence_ids:
            if tokens is None:
                conv, pooled, _ = self.encode_sentence(ids, rng)
            else:
                conv, pooled, _ = self.encode_sentence(ids, rng, tokens[start:start + len(ids)])
                start += len(ids)
            conv_outputs.append(conv)
            sentence_vectors.append(pooled)
        hidden = self._lstm(nm.concat(sentence_vectors, axis=0))
        essay_vector, sent_alpha = self._additive_attention(
            hidden, self.sent_attn_w, self.sent_attn_b, self.sent_attn_v)
        return conv_outputs, hidden, essay_vector, sent_alpha

    def encode_article(self, rng=None):
        """The article's LSTM hidden states (n, H) for co_attention, else None.

        Every essay scored with the same parameters and dropout mask can
        share the result through ``forward``'s ``article`` argument.
        """
        if self.article_sentence_ids is None:
            return None
        return self.encode_essay(self.article_sentence_ids, rng)[1]

    def coattend(self, essay_hidden, article_hidden):
        """(essay2article, article2essay) mixtures from the affinity matrix."""
        affinity = nm.matmul(nm.matmul(essay_hidden, self.affinity),
                             nm.transpose(article_hidden))
        essay2article = nm.matmul(nm.softmax(affinity, axis=-1), article_hidden)
        article2essay = nm.matmul(nm.softmax(nm.transpose(affinity), axis=-1),
                                  essay_hidden)
        return essay2article, article2essay

    def forward_batch(self, batch_sentence_ids, heads=None):
        """Evaluation outputs, one :class:`ForwardOutput` per essay, in a list.

        The article is encoded once, and the essays are scored in padded
        blocks of up to ``EVAL_SLICE`` essays (see the module docstring); the
        outputs carry their values only. ``heads`` are the gaze attributes
        whose heads run, as in :meth:`forward`.
        """
        if not all(batch_sentence_ids):
            raise ValueError("forward: essay has no sentences")
        heads = self.config.gaze_attributes if heads is None else heads
        article = self.encode_article()
        article = None if article is None else article.data
        order = sorted(range(len(batch_sentence_ids)),
                       key=lambda i: -len(batch_sentence_ids[i]))
        outputs = [None] * len(order)
        for start in range(0, len(order), EVAL_SLICE):
            chosen = order[start:start + EVAL_SLICE]
            scored = self._score_block([batch_sentence_ids[i] for i in chosen], article, heads)
            for i, output in zip(chosen, scored):
                outputs[i] = output
        return outputs

    # -- evaluation on parameter values, no graph ----------------------------

    def _encode_words(self, sentence_ids, heads):
        """One essay's sentence vectors (S, F), an empty sentence's zero, and
        the predictions of its gaze ``heads``, from one padded token block."""
        k, w = self.config.conv_kernel, self.conv_w.data
        lengths = np.array([len(ids) for ids in sentence_ids])
        width = max(lengths.max(), 1)
        mask = np.arange(width) < lengths[:, None]
        # zero rows around and after each sentence's tokens, as encode_tokens pads
        embedded = np.zeros((len(sentence_ids), width + k - 1, w.shape[1]))
        table = self.embedding.data
        embedded[:, k // 2:k // 2 + width][mask] = table[nm._gather_ids(
            "forward_batch", table, [i for sentence in sentence_ids for i in sentence])]
        conv = nm._conv_forward(embedded, w)
        # forward's one-token sentence is one-row matmuls, GEMVs: keep them so
        single = lengths == 1
        if width > 1 and single.any():
            conv[single, :1] = nm._conv_forward(embedded[single, :k], w)
        conv = nm._tanh(nm._add_bias("forward_batch", conv, self.conv_b.data))
        vectors = _attend(conv, mask, self.word_attn_w, self.word_attn_b, self.word_attn_v)
        gaze = {}
        if heads and mask.any():
            tokens = conv[mask]  # forward's row order: sentence by sentence
            gaze = {a: Tensor(nm._dense(tokens, self.gaze_w[a].data, self.gaze_b[a].data,
                                        "sigmoid"))
                    for a in heads}
        return vectors, gaze

    def _lstm_block(self, inputs, counts):
        """Hidden states (B, L, H) over (B, L, F) inputs whose essay b has
        ``counts[b]`` sentences, counts descending; each essay's later rows stay zero."""
        wh = self.lstm_wh.data
        projected = inputs @ self.lstm_wx.data
        hidden = np.zeros(inputs.shape[:2] + (len(wh),))
        h = c = np.zeros((len(inputs), len(wh)))
        for t in range(inputs.shape[1]):
            n = np.count_nonzero(counts > t)
            *_, c, h = nm._lstm_step(projected[:n, t], h[:n], c[:n], wh, self.lstm_b.data)
            hidden[:n, t] = h
        return hidden

    def _score_block(self, essays, article, heads):
        """Evaluation outputs of essays given in descending sentence count."""
        words = [self._encode_words(sentence_ids, heads) for sentence_ids in essays]
        counts = np.array([len(sentence_ids) for sentence_ids in essays])
        mask = np.arange(counts[0]) < counts[:, None]
        inputs = np.zeros((len(essays), counts[0], self.config.conv_filters))
        inputs[mask] = np.concatenate([vectors for vectors, _ in words])
        hidden = self._lstm_block(inputs, counts)
        summary = _attend(hidden, mask, self.sent_attn_w, self.sent_attn_b, self.sent_attn_v)
        if article is not None:
            affinity = hidden @ self.affinity.data @ article.T  # (B, L, article rows)
            essay2article = nm._softmax(affinity) @ article
            article2essay = nm._softmax(affinity.transpose(0, 2, 1), mask=mask[:, None]) @ hidden
            summary = np.concatenate([
                summary,
                _attend(essay2article, mask, self.e2a_attn_w, self.e2a_attn_b, self.e2a_attn_v),
                _attend(article2essay, True, self.a2e_attn_w, self.a2e_attn_b, self.a2e_attn_v),
            ], axis=1)
        modeled = nm._dense(summary, self.modeling_w.data, self.modeling_b.data, "tanh")
        scores = nm._dense(modeled, self.output_w.data, self.output_b.data, "sigmoid")
        return [ForwardOutput(Tensor(score[None]), gaze)
                for score, (_, gaze) in zip(scores, words)]

    def forward(self, sentence_ids, rng=None, article=None, heads=None):
        """Score one essay given its vocabulary-encoded sentences.

        ``article`` is :meth:`encode_article`'s result for this parameter
        state; when it is None, co_attention encodes the article itself.
        ``heads`` are the configured gaze attributes whose heads run, in the
        order the output gives them, every configured one when None.
        """
        if not sentence_ids:
            raise ValueError("forward: essay has no sentences")
        heads = self.config.gaze_attributes if heads is None else heads
        tokens = None  # the gaze heads' input, which the sentences' encoders write
        if heads:
            tokens = np.empty((sum(len(ids) for ids in sentence_ids), self.config.conv_filters))
        conv_outputs, essay_hidden, essay_vector, _ = self.encode_essay(
            sentence_ids, rng, tokens)

        if self.config.architecture == "co_attention":
            if article is None:
                article = self.encode_article(rng)
            essay2article, article2essay = self.coattend(essay_hidden, article)
            e2a_pooled, _ = self._additive_attention(
                essay2article, self.e2a_attn_w, self.e2a_attn_b, self.e2a_attn_v)
            a2e_pooled, _ = self._additive_attention(
                article2essay, self.a2e_attn_w, self.a2e_attn_b, self.a2e_attn_v)
            modeling_in = nm.concat([essay_vector, e2a_pooled, a2e_pooled], axis=1)
        else:
            modeling_in = essay_vector

        if rng is not None:
            modeling_in = nm.dropout(modeling_in, self.config.dropout, rng)
        modeled = nm.dense(modeling_in, self.modeling_w, self.modeling_b, "tanh")
        score = nm.dense(modeled, self.output_w, self.output_b, "sigmoid")

        real_convs = [c for c in conv_outputs if c is not None]
        gaze_predictions = {}
        if heads and real_convs:
            all_tokens = nm.concat(real_convs, axis=0, out=tokens)
            for attribute in heads:
                gaze_predictions[attribute] = nm.dense(
                    all_tokens, self.gaze_w[attribute], self.gaze_b[attribute], "sigmoid")
        return ForwardOutput(predicted_score=score, gaze_predictions=gaze_predictions)
