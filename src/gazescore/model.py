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
hidden states come from :meth:`EssayScorer.encode_article`, once per list
of essays scored through :meth:`EssayScorer.forward_batch`: per mini-batch in
training (one graph, one dropout mask, one backward), per evaluation pass.
An rng means training: it draws the dropout masks. Without an rng
``forward_batch`` cuts each essay's outputs from the graph before the next
essay runs, so callers may hold every output it returns.

Gaze heads are independent linear+sigmoid layers reading the convolution
outputs token by token, so each non-padding token gets one prediction per
configured attribute.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .gaze import GAZE_ATTRIBUTES
from .numerics import Tensor

ARCHITECTURES = ("self_attention", "co_attention")


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


def _graph_free(output):
    """``output`` with its score and gaze predictions cut from the graph."""
    return ForwardOutput(
        Tensor(output.predicted_score.data),
        {a: Tensor(p.data) for a, p in output.gaze_predictions.items()})


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
        u = nm.tanh(nm.add(nm.matmul(states, w), b))
        scores = nm.transpose(nm.matmul(u, v))  # (1, n)
        alpha = nm.softmax(scores, axis=-1)
        return nm.matmul(alpha, states), alpha

    def encode_sentence(self, token_ids, rng):
        """(conv outputs (T, F) or None, sentence vector (1, F), word attention)."""
        if len(token_ids) == 0:
            zero = Tensor(np.zeros((1, self.config.conv_filters)))
            return None, zero, None
        embedded = nm.gather_rows(self.embedding, np.asarray(token_ids, dtype=np.int64))
        if rng is not None:
            embedded = nm.dropout(embedded, self.config.dropout, rng)
        conv = nm.tanh(nm.add(nm.conv1d(embedded, self.conv_w), self.conv_b))
        pooled, alpha = self._additive_attention(
            conv, self.word_attn_w, self.word_attn_b, self.word_attn_v)
        return conv, pooled, alpha

    def _lstm(self, inputs):
        """Forward LSTM over (n, F) rows; returns hidden states (n, H)."""
        return nm.lstm(inputs, self.lstm_wx, self.lstm_wh, self.lstm_b)

    def encode_essay(self, sentence_ids, rng):
        """Run the shared tower; returns (conv outputs per sentence, None for an
        empty one; H; essay vector; sentence attention)."""
        conv_outputs = []
        sentence_vectors = []
        for ids in sentence_ids:
            conv, pooled, _ = self.encode_sentence(ids, rng)
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

    def forward_batch(self, batch_sentence_ids, rng=None):
        """One :class:`ForwardOutput` per essay, in a list; the article is encoded once.

        With an rng (training) the essays share the article's graph and
        dropout mask. Without one (evaluation) each output is cut from the
        graph before the next essay runs, so one essay's graph is alive at a time.
        """
        article = self.encode_article(rng)
        keep = _graph_free if rng is None else (lambda out: out)
        return [keep(self.forward(sentence_ids, rng, article=article))
                for sentence_ids in batch_sentence_ids]

    def forward(self, sentence_ids, rng=None, article=None):
        """Score one essay given its vocabulary-encoded sentences.

        ``article`` is :meth:`encode_article`'s result for this parameter
        state; when it is None, co_attention encodes the article itself.
        """
        if not sentence_ids:
            raise ValueError("forward: essay has no sentences")
        conv_outputs, essay_hidden, essay_vector, _ = self.encode_essay(sentence_ids, rng)

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
        modeled = nm.tanh(nm.add(nm.matmul(modeling_in, self.modeling_w), self.modeling_b))
        score = nm.sigmoid(nm.add(nm.matmul(modeled, self.output_w), self.output_b))

        real_convs = [c for c in conv_outputs if c is not None]
        gaze_predictions = {}
        if self.config.gaze_attributes and real_convs:
            all_tokens = nm.concat(real_convs, axis=0)
            for attribute in self.config.gaze_attributes:
                logits = nm.add(nm.matmul(all_tokens, self.gaze_w[attribute]),
                                self.gaze_b[attribute])
                gaze_predictions[attribute] = nm.sigmoid(logits)
        return ForwardOutput(predicted_score=score, gaze_predictions=gaze_predictions)
